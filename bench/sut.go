package main

// sut.go is the benchmark's one adapter to the system under test: every call
// into automon/internal/... lives in this file, so the surface a later change
// must keep stable (or port here) is enumerable by reading it. The rest of the
// benchmark speaks only the bench-owned types declared below. Nothing here
// uses what ROADMAP item 2 marks for deletion: batching is always on (wire
// v2), and DisableEvalMemo, UsePowerIteration, ForceADCDX and the zone-cache
// fields stay at their zero values.

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/ingest"
	"automon/internal/linalg"
	"automon/internal/obs"
	"automon/internal/shard"
	"automon/internal/sketch"
	"automon/internal/stream"
	"automon/internal/testenv"
	"automon/internal/transport"
)

// raceEnabled gates allocation assertions in the smoke test.
const raceEnabled = testenv.RaceEnabled

// Sketch shape and warm-up shared by quiet-sock and storm-sock (the
// examples/sketchf2 setting).
const (
	sketchRows = 4
	sketchCols = 64
	sketchWarm = 400
	sketchSeed = 42 // hash family; every node shares it so sketches merge
	kldBins    = 50
	fleetDim   = 8
	fleetWin   = 4
)

// monitored is a function under monitoring with its coordinator settings.
type monitored struct {
	f   *core.Function
	cfg core.Config
}

func (m *monitored) dim() int                  { return m.f.Dim() }
func (m *monitored) eps() float64              { return m.cfg.Epsilon }
func (m *monitored) value(x []float64) float64 { return m.f.Value(x) }

// sketchF2 is F₂ of an AMS 4×64 sketch: d = 256, constant Hessian ⇒ ADCD-E.
func sketchF2() *monitored {
	return &monitored{f: funcs.AMSF2(sketchRows, sketchCols), cfg: core.Config{Epsilon: 0.1}}
}

// kldHist is KLD over two 50-bin histograms: d = 100, ADCD-X with the
// KLDWorkload search settings and a fixed neighborhood radius.
func kldHist(nodes int) *monitored {
	return &monitored{
		f: funcs.KLD(kldBins, 1.0/float64(nodes*200)),
		cfg: core.Config{
			Epsilon: 0.02,
			R:       0.05,
			Decomp:  core.DecompOptions{Seed: 1, OptStarts: 1, OptMaxIter: 25, OptMaxFunEvals: 150},
		},
	}
}

// sqNorm8 is ‖x‖² over 8 dimensions, the large-fleet function.
func sqNorm8() *monitored {
	return &monitored{f: funcs.SqNorm(fleetDim), cfg: core.Config{Epsilon: 0.05}}
}

// feeder turns one node's generated input into its sequence of local vectors.
// advance and vector are separate so a traced run can time the sketch update
// and the materialization on their own.
type feeder interface {
	// advance folds input k into the node's local state.
	advance(k int)
	// vector materializes the current local vector into feeder-owned scratch.
	vector() []float64
}

// input is one workload's generated data: a primed feeder per node.
type input struct {
	mon     *monitored
	feeders []feeder
	perNode int // events offered to each node
}

type sketchFeeder struct {
	src *ingest.AMSSource
	evs []sketch.Update
	vec []float64
}

func (s *sketchFeeder) advance(k int) { s.src.Apply(s.evs[k]) }

func (s *sketchFeeder) vector() []float64 {
	s.src.VectorInto(s.vec)
	return s.vec
}

// The quiet workload's live population: ramps of pure inserts (or pure
// deletes) between plateaus of one-in, one-out churn.
const (
	churnRamp    = 1500 // events per node in each ramp
	churnPlateau = 4500 // events per node in each plateau
)

// steadyChurn re-signs a churn stream in place. stream.SketchChurn pairs each
// insert with the deletion of an unrelated item, so every counter random-walks
// and the second moment grows with the stream's length along a path that
// differs fivefold between seeds. Here the items stay SketchChurn's, but a
// deletion always removes the oldest item still live, so the sketch is its
// warm state plus the live items and nothing else, and the live population
// follows a fixed cycle: ramp up, plateau, ramp down, plateau. A ramp moves
// F₂ across about three ε quickly, so each crossing costs a full sync rather
// than a long chain of lazy syncs whose length depends on thread timing; on a
// plateau the sketch only jitters. The seed chooses the items; the workload
// chooses how often a threshold is crossed.
func steadyChurn(evs []sketch.Update, offset int) {
	live := make([]uint64, 0, len(evs))
	head := 0
	const period = 2 * (churnRamp + churnPlateau)
	for k := range evs {
		var insert bool
		switch pos := (k + offset) % period; {
		case pos < churnRamp:
			insert = true
		case pos < churnRamp+churnPlateau, pos >= 2*churnRamp+churnPlateau:
			insert = k%2 == 0
		}
		if insert || head == len(live) {
			evs[k].Delta = 1
			live = append(live, evs[k].Item)
			continue
		}
		evs[k] = sketch.Update{Item: live[head], Delta: -1}
		head++
	}
}

// sketchInput generates a turnstile stream ("churn" or "episodes"), builds one
// AMS source per node and warms it with the stream's warm-up prefix.
func sketchInput(kind string, nodes, perNode int, seed int64) (*input, error) {
	var ev *stream.Events
	switch kind {
	case "churn":
		ev = stream.SketchChurn(nodes, sketchWarm, perNode, seed)
	case "episodes":
		ev = stream.SketchEpisodes(nodes, sketchWarm, perNode, seed)
	default:
		return nil, fmt.Errorf("unknown sketch stream %q", kind)
	}
	in := &input{mon: sketchF2(), perNode: perNode}
	for i := 0; i < nodes; i++ {
		if kind == "churn" {
			// Cycles are staggered by one ramp per pair of nodes, and the two
			// nodes of a pair are half a cycle apart: one ramps up exactly
			// while the other ramps down, so x̄ barely moves. A pair (2j, 2j+1)
			// belongs to one driver, which offers both the same event index
			// back to back; were the opposite nodes on different drivers, any
			// difference in the drivers' progress would move x̄ and a busy host
			// would double the message count.
			steadyChurn(ev.PerNode[i], (i/2)*churnRamp+(i%2)*(churnRamp+churnPlateau))
		}
		src, err := ingest.NewAMSSource(sketchRows, sketchCols, sketchSeed, 1.0/sketchWarm)
		if err != nil {
			return nil, err
		}
		for _, u := range ev.Warm[i] {
			src.Apply(u)
		}
		in.feeders = append(in.feeders, &sketchFeeder{src: src, evs: ev.PerNode[i], vec: make([]float64, src.Dim())})
	}
	return in, nil
}

// structureSeed draws what belongs to a workload rather than to one run of
// it: per-node offsets and phases. The run's seed draws only sample noise.
const structureSeed = 20220612

// genFeeder slides a window over samples generated on the fly, so a lap's
// input costs no heap: a pre-generated fleet stream is a quarter of a gigabyte
// of small slices, and collecting around it made laps differ by 20 %.
type genFeeder struct {
	w   stream.Windower
	gen func(round int, out []float64)
	buf []float64
}

func (g *genFeeder) advance(k int) {
	g.gen(k, g.buf)
	g.w.Push(g.buf)
}

func (g *genFeeder) vector() []float64 { return g.w.Vector() }

// KLD stream shape. Each site reports an hourly (PM10, PM2.5) pair, the two
// attributes of stream.NewAirQuality, histogrammed over the same 200-sample
// window into the same 50 bins on [0, 500]. NewAirQuality itself is not used:
// its rare random pollution episodes make the number of full syncs in a
// 2000-round lap differ by ±15 % from seed to seed, which no bound survives.
// Here the large-scale structure is fixed — a 25-hour diurnal cycle with a
// per-site phase, a slow city-wide swing, and a PM10/PM2.5 ratio that drifts
// apart and back — and the seed draws only the per-sample noise.
const (
	kldWindow    = 200
	kldDiurnal   = 35.0  // amplitude of the 25-hour cycle
	kldCitySwing = 25.0  // amplitude of the slow city-wide level
	kldCityHours = 600.0 // its period
	kldMixHours  = 900.0 // period of the composition (ratio) drift
	kldNoise25   = 3.0
	kldNoise10   = 4.0
)

// histogramInput is the KLD workload's data.
func histogramInput(nodes, rounds int, seed int64) *input {
	in := &input{mon: kldHist(nodes), perNode: rounds}
	for i := 0; i < nodes; i++ {
		node := i
		offset := 10 * unitNoise(structureSeed, -1, node, 0)
		phase := math.Pi * (1 + unitNoise(structureSeed, -1, node, 1)/math.Sqrt(3))
		gen := func(round int, out []float64) {
			t := float64(round)
			pm25 := 70 + offset +
				kldDiurnal*math.Sin(2*math.Pi*t/25+phase) +
				kldCitySwing*math.Sin(2*math.Pi*t/kldCityHours) +
				kldNoise25*unitNoise(seed, round, node, 0)
			ratio := 1.3 - 0.2*(0.5+0.5*math.Sin(2*math.Pi*t/kldMixHours))
			out[0] = pm25*ratio + kldNoise10*unitNoise(seed, round, node, 1)
			out[1] = pm25
		}
		fd := &genFeeder{w: stream.NewHistWindow(kldWindow, kldBins, 0, 500), gen: gen, buf: make([]float64, 2)}
		for r := -kldWindow; r < 0; r++ {
			fd.advance(r)
		}
		in.feeders = append(in.feeders, fd)
	}
	return in
}

// Fleet stream shape: every node sits near 1/√d·𝟙 (so f ≈ 1) plus a fixed
// per-node offset; the whole fleet drifts outward along 𝟙 and each sample
// carries independent noise. The drift is the same for every seed, so the
// number of full syncs is set by the workload and the seed moves only the
// noise-driven lazy syncs.
const (
	fleetDrift  = 2e-3   // per round, along the unit diagonal
	fleetNoise  = 1.5e-2 // per-sample, per-dimension standard deviation
	fleetSpread = 5e-2   // per-node fixed offset scale
)

// driftInput is the fleet workloads' data: a four-sample averaging window per
// node over the drifting stream.
func driftInput(nodes, rounds int, seed int64) *input {
	base := 1 / math.Sqrt(fleetDim)
	in := &input{mon: sqNorm8(), perNode: rounds}
	for i := 0; i < nodes; i++ {
		node := i
		gen := func(round int, out []float64) {
			for j := range out {
				out[j] = base +
					fleetSpread*unitNoise(structureSeed, -1, node, j) +
					fleetDrift*float64(round)*base +
					fleetNoise*unitNoise(seed, round, node, j)
			}
		}
		fd := &genFeeder{w: stream.NewAvgWindow(fleetWin, fleetDim), gen: gen, buf: make([]float64, fleetDim)}
		for r := 0; r < fleetWin; r++ {
			gen(0, fd.buf)
			fd.w.Push(fd.buf)
		}
		in.feeders = append(in.feeders, fd)
	}
	return in
}

// protoStats is the slice of the coordinator's protocol counters the
// benchmark reports.
type protoStats struct {
	FullSyncs, LazyAttempts, LazyResolved          int
	Neighborhood, SafeZone, Faulty                 int
	Eigensolves, XBuilds                           int
	ZoneCacheHits, NodeDeaths, Rejoins, RDoublings int
}

func toProtoStats(s core.CoordStats) protoStats {
	return protoStats{
		FullSyncs: s.FullSyncs, LazyAttempts: s.LazyAttempts, LazyResolved: s.LazyResolved,
		Neighborhood: s.NeighborhoodViolations, SafeZone: s.SafeZoneViolations, Faulty: s.FaultyViolations,
		Eigensolves:   s.Eigensolves,
		XBuilds:       s.EigBoundBuildsLBFGS + s.EigBoundBuildsInterval + s.EigBoundBuildsHybrid,
		ZoneCacheHits: s.ZoneCacheHits, NodeDeaths: s.NodeDeaths, Rejoins: s.Rejoins, RDoublings: s.RDoublings,
	}
}

// add sums the counters a traced run pools over its laps.
func (a protoStats) add(b protoStats) protoStats {
	a.FullSyncs += b.FullSyncs
	a.LazyAttempts += b.LazyAttempts
	a.LazyResolved += b.LazyResolved
	a.Neighborhood += b.Neighborhood
	a.SafeZone += b.SafeZone
	a.Faulty += b.Faulty
	a.Eigensolves += b.Eigensolves
	a.XBuilds += b.XBuilds
	return a
}

// wireStats snapshots one endpoint's traffic counters.
type wireStats struct {
	MsgsSent, MsgsRecv     int64
	WireSent, WireRecv     int64
	FramesSent, FramesRecv int64
	BatchSent, BatchRecv   int64
}

func (w wireStats) msgs() int64   { return w.MsgsSent + w.MsgsRecv }
func (w wireStats) wire() int64   { return w.WireSent + w.WireRecv }
func (w wireStats) frames() int64 { return w.FramesSent + w.FramesRecv }
func (w wireStats) batch() int64  { return w.BatchSent + w.BatchRecv }

func (w wireStats) add(o wireStats) wireStats {
	return wireStats{
		w.MsgsSent + o.MsgsSent, w.MsgsRecv + o.MsgsRecv,
		w.WireSent + o.WireSent, w.WireRecv + o.WireRecv,
		w.FramesSent + o.FramesSent, w.FramesRecv + o.FramesRecv,
		w.BatchSent + o.BatchSent, w.BatchRecv + o.BatchRecv,
	}
}

func (w wireStats) sub(o wireStats) wireStats {
	return wireStats{
		w.MsgsSent - o.MsgsSent, w.MsgsRecv - o.MsgsRecv,
		w.WireSent - o.WireSent, w.WireRecv - o.WireRecv,
		w.FramesSent - o.FramesSent, w.FramesRecv - o.FramesRecv,
		w.BatchSent - o.BatchSent, w.BatchRecv - o.BatchRecv,
	}
}

func snapTraffic(s *transport.TrafficStats) wireStats {
	return wireStats{
		s.MessagesSent.Load(), s.MessagesReceived.Load(),
		s.WireSent.Load(), s.WireReceived.Load(),
		s.FramesSent.Load(), s.FramesReceived.Load(),
		s.BatchOverheadSent.Load(), s.BatchOverheadReceived.Load(),
	}
}

// dialFunc is the transport's node-side dial hook; a traced run interposes a
// timestamping connection through it.
type dialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// sockSystem is a coordinator and its node clients over loopback sockets
// (wire v2, batching 64 KiB / 1 ms). The links are the system's own; the
// load generator opens none.
type sockSystem struct {
	mon     *monitored
	coord   *transport.Coordinator
	clients []*transport.NodeClient
	reg     *obs.Registry
	elide   bool
	// registerNs is the time the node dials took (connect + registration
	// frame), the observable part of registration.
	registerNs int64
}

const readyTimeout = 60 * time.Second

// startSock listens, dials every node with its initial vector and waits for
// the initial full sync to reach all of them. dial, when non-nil, builds node
// i's dial hook.
func startSock(mon *monitored, initial [][]float64, elide bool, dial func(node int) dialFunc) (*sockSystem, error) {
	n := len(initial)
	s := &sockSystem{mon: mon, reg: obs.NewRegistry(), elide: elide}
	opts := transport.Options{
		Batch:   transport.BatchOptions{MaxBytes: 64 << 10, MaxDelay: time.Millisecond},
		Metrics: s.reg,
	}
	coord, err := transport.ListenCoordinator("127.0.0.1:0", mon.f, n, mon.cfg, opts)
	if err != nil {
		return nil, err
	}
	s.coord = coord
	t0 := time.Now()
	for i := 0; i < n; i++ {
		nodeOpts := opts
		if dial != nil {
			nodeOpts.Dial = dial(i)
		}
		c, err := transport.DialNode(coord.Addr(), i, mon.f, initial[i], nodeOpts)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial node %d: %w", i, err)
		}
		s.clients = append(s.clients, c)
	}
	s.registerNs = time.Since(t0).Nanoseconds()
	select {
	case <-coord.Ready():
	case <-time.After(readyTimeout):
		s.close()
		return nil, errors.New("coordinator never became ready")
	}
	if err := coord.Err(); err != nil {
		s.close()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	for i, c := range s.clients {
		if err := c.WaitReady(readyTimeout); err != nil {
			s.close()
			return nil, err
		}
		if elide && !c.EnableElision() {
			s.close()
			return nil, fmt.Errorf("node %d: elision unavailable for %s", i, mon.f.Name)
		}
	}
	return s, nil
}

// update offers one local vector to node i and blocks until any violation it
// raises is resolved.
func (s *sockSystem) update(i int, x []float64) error {
	if s.elide {
		return s.clients[i].UpdateElided(x)
	}
	return s.clients[i].Update(x)
}

// nodeMsgsSent is node i's sent-message counter; it advances across an update
// call exactly when the node talked to the coordinator during it.
func (s *sockSystem) nodeMsgsSent(i int) int64 { return s.clients[i].Stats.MessagesSent.Load() }

func (s *sockSystem) estimate() float64  { return s.coord.Estimate() }
func (s *sockSystem) proto() protoStats  { return toProtoStats(s.coord.CoordStats()) }
func (s *sockSystem) traffic() wireStats { return snapTraffic(&s.coord.Stats) }
func (s *sockSystem) coordErr() error    { return s.coord.Err() }
func (s *sockSystem) elidedUpdates() int64 {
	var total int64
	for _, c := range s.clients {
		total += c.ElidedUpdates()
	}
	return total
}

// activity is a number that changes whenever any endpoint sends or receives
// a message; checkpoints poll it to find the system quiet.
func (s *sockSystem) activity() int64 {
	total := s.traffic().msgs()
	for _, c := range s.clients {
		total += c.Stats.MessagesSent.Load() + c.Stats.MessagesReceived.Load()
	}
	return total
}

// faults counts what the workloads are sized never to hit.
type faults struct{ Shed, DeadlineHits, Reconnects, Degraded int64 }

func (f faults) total() int64 { return f.Shed + f.DeadlineHits + f.Reconnects + f.Degraded }

func (s *sockSystem) faults() faults {
	snap := s.reg.Snapshot()
	f := faults{
		Shed:         int64(snap["automon_transport_shed_violations_total"]),
		DeadlineHits: int64(snap["automon_transport_request_timeouts_total"]),
	}
	for _, c := range s.clients {
		f.Reconnects += c.Reconnects()
	}
	if s.coord.Degraded() {
		f.Degraded = 1
	}
	return f
}

func (s *sockSystem) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.coord.Close()
}

// commKind names the three coordinator→node fabric calls.
type commKind uint8

const (
	commRequest commKind = iota
	commSync
	commSlack
)

// procComm is the bench-owned in-process fabric (core.NodeComm): it applies
// coordinator messages directly to core.Nodes and counts them with sim
// accounting (a data pull is a request plus a response). When hook is set it
// reports each call's start and end, which is how a traced run splits
// HandleViolation into machine self time and time inside the fabric.
type procComm struct {
	sys   *procSystem
	msgs  int64
	bytes int64
	sizes [4]int64 // encoded payload size per message shape, learned once
	hook  func(k commKind, start, end int64)
	clock func() int64
	// Node 0's latest syncs, with and without the ADCD-E matrix, kept as
	// inputs for the layer registry.
	matrixSync, lastSync *core.Sync
}

// Payload shapes whose encoded size is constant for a given function.
const (
	sizeRequest = iota
	sizeResponse
	sizeSync
	sizeSlack
)

// count books one message of a constant-size shape. The size is learned from
// the first message of that shape; callers build one only while it is unknown,
// so counting allocates nothing afterwards.
func (c *procComm) count(shape int) {
	c.msgs++
	c.bytes += c.sizes[shape]
}

func (c *procComm) learn(shape int, m core.Message) {
	c.sizes[shape] = int64(len(m.Encode()))
}

func (c *procComm) RequestData(id int) []float64 {
	var t0 int64
	if c.hook != nil {
		t0 = c.clock()
	}
	if c.sys.latest != nil {
		// Elided twin: between exact checks the node's vector is stale by
		// design, so a pull materializes the application's latest first.
		c.sys.nodes[id].SetData(c.sys.latest[id])
	}
	x := c.sys.nodes[id].LocalVector()
	if c.sizes[sizeRequest] == 0 {
		c.learn(sizeRequest, &core.DataRequest{NodeID: id})
		c.learn(sizeResponse, &core.DataResponse{NodeID: id, X: x})
	}
	c.count(sizeRequest)
	c.count(sizeResponse)
	if c.hook != nil {
		c.hook(commRequest, t0, c.clock())
	}
	return x
}

func (c *procComm) SendSync(id int, m *core.Sync) {
	var t0 int64
	if c.hook != nil {
		t0 = c.clock()
	}
	if m.WithMatrix {
		// The ADCD-E matrix rides only the first sync to each node; its
		// size is counted as it is, not learned.
		c.msgs++
		c.bytes += int64(len(m.Encode()))
		if id == 0 {
			c.matrixSync = m
		}
	} else {
		if c.sizes[sizeSync] == 0 {
			c.learn(sizeSync, m)
		}
		c.count(sizeSync)
		if id == 0 {
			c.lastSync = m
		}
	}
	c.sys.nodes[id].ApplySync(m)
	if c.hook != nil {
		c.hook(commSync, t0, c.clock())
	}
}

func (c *procComm) SendSlack(id int, m *core.Slack) {
	var t0 int64
	if c.hook != nil {
		t0 = c.clock()
	}
	if c.sizes[sizeSlack] == 0 {
		c.learn(sizeSlack, m)
	}
	c.count(sizeSlack)
	c.sys.nodes[id].ApplySlack(m)
	if c.hook != nil {
		c.hook(commSlack, t0, c.clock())
	}
}

// procCoordinator is what the flat coordinator and the shard tree share.
type procCoordinator interface {
	Init() error
	Resync() error
	HandleViolation(v *core.Violation) error
	Estimate() float64
	Stats() core.CoordStats
}

// topology selects the Ownership under the one protocol machine.
type topology uint8

const (
	topoFlat   topology = iota // core.NewCoordinator
	topoTree64                 // shard.NewTree, 64 leaves, fan-out 8, routing mode
)

// procSystem is an in-process fleet: core.Nodes, a coordinator (flat or
// tree) and the bench fabric between them. offer may be called concurrently
// for distinct nodes; resolve, estimate and resync are serial.
type procSystem struct {
	mon     *monitored
	nodes   []*core.Node
	coord   procCoordinator
	comm    *procComm
	pending []*core.Violation
	// latest is set only by the elided twin of a socket workload: the
	// application's newest vector per node, as transport.NodeClient keeps it.
	latest      [][]float64
	elided      int64
	violMsgSize int64
	// resolutions counts handled violations; a queued violation older than
	// the last resolution is rechecked before it is reported.
	resolutions int64
	initNs      int64
}

// startProc builds the fleet and runs the initial full sync. hook and clock
// may be nil (untraced).
func startProc(mon *monitored, initial [][]float64, topo topology, elide bool,
	clock func() int64, hook func(k commKind, start, end int64)) (*procSystem, error) {
	n := len(initial)
	p := &procSystem{mon: mon, nodes: make([]*core.Node, n), pending: make([]*core.Violation, n)}
	p.comm = &procComm{sys: p, hook: hook, clock: clock}
	for i := range p.nodes {
		p.nodes[i] = core.NewNode(i, mon.f)
		p.nodes[i].SetData(initial[i])
	}
	if elide {
		p.latest = make([][]float64, n)
		for i := range p.latest {
			if !p.nodes[i].EnableElision() {
				return nil, fmt.Errorf("node %d: elision unavailable for %s", i, mon.f.Name)
			}
			p.latest[i] = linalg.Clone(initial[i])
		}
	}
	switch topo {
	case topoFlat:
		p.coord = core.NewCoordinator(mon.f, n, mon.cfg, p.comm)
	case topoTree64:
		t, err := shard.NewTree(mon.f, n, mon.cfg, p.comm, shard.Options{Shards: 64, Fanout: 8, Mode: shard.ModeRoute})
		if err != nil {
			return nil, err
		}
		p.coord = t
	}
	p.violMsgSize = int64(len((&core.Violation{X: initial[0]}).Encode()))
	t0 := time.Now()
	if err := p.coord.Init(); err != nil {
		return nil, err
	}
	p.initNs = time.Since(t0).Nanoseconds()
	return p, nil
}

// offer installs node i's new local vector and checks its constraints. A
// violation is queued for resolve; the return value says whether one was.
func (p *procSystem) offer(i int, x []float64) bool {
	v := p.nodes[i].UpdateData(x)
	p.pending[i] = v
	return v != nil
}

// offerElided is offer on the elided path, step for step what
// transport.NodeClient.UpdateElided does before it touches the network.
func (p *procSystem) offerElided(i int, x []float64) bool {
	norm := math.Sqrt(linalg.SqDist(x, p.latest[i]))
	copy(p.latest[i], x)
	if !p.nodes[i].SpendBudget(norm) {
		p.elided++
		return false
	}
	v := p.nodes[i].UpdateDataRefresh(x)
	p.pending[i] = v
	return v != nil
}

// resolve reports node i's queued violation to the coordinator. If another
// resolution ran since the violation was queued (since marks the counter at
// queue time) the node first rechecks, as a transport node does after every
// sync, and stays silent when its constraints hold again. It returns whether
// the coordinator was called.
func (p *procSystem) resolve(i int, since int64) (bool, error) {
	v := p.pending[i]
	p.pending[i] = nil
	if v == nil {
		return false, nil
	}
	if p.resolutions != since {
		if v = p.nodes[i].Check(); v == nil {
			return false, nil
		}
	}
	p.comm.msgs++
	p.comm.bytes += p.violMsgSize
	p.resolutions++
	return true, p.coord.HandleViolation(v)
}

func (p *procSystem) estimate() float64 { return p.coord.Estimate() }
func (p *procSystem) resync() error     { return p.coord.Resync() }
func (p *procSystem) proto() protoStats { return toProtoStats(p.coord.Stats()) }
func (p *procSystem) msgs() int64       { return p.comm.msgs }
func (p *procSystem) payload() int64    { return p.comm.bytes }

// unitNoise is a deterministic, order-independent stand-in for a unit-variance
// random draw (uniform on [−√3, √3]) keyed by its coordinates.
func unitNoise(seed int64, round, node, dim int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(int64(round)+1)*0xBF58476D1CE4E5B9 ^
		uint64(node)*0x94D049BB133111EB ^ uint64(dim)*0xD6E8FEB86659FD93
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	u := float64(h>>11) / (1 << 53) // [0, 1)
	return (2*u - 1) * math.Sqrt(3)
}

// ---- layer registry fixtures --------------------------------------------
//
// The registry times public functions of single layers on inputs taken from
// the workloads' own generators: a d = 256 sketch group and a d = 100 KLD
// group after their initial syncs, and a small routing tree. Each op runs the
// call n times; registry.go owns the names, the timing loop and the manifest.

type fixtures struct {
	seed int64

	sk    *procSystem // sketch F2, 8 nodes, ADCD-E zones installed
	skIn  *input
	skVec []float64
	kld   *procSystem // KLD, 8 nodes, ADCD-X zones installed
	kldX  []float64
	tree  *procSystem // 256 nodes under the routing tree

	elided, exact *ingest.NodeIngestor
	flip          sketch.Update

	violation *core.Violation
	syncBytes []byte
	partial   *core.Partial
	accA      []linalg.Acc
	accB      []linalg.Acc
	hess      *linalg.Mat
	grad      []float64
	diff      []float64
	spec      core.X0Spectrum

	uplink   *transport.SubtreeUplink
	listener *transport.SubtreeListener
	arrived  chan struct{}

	counter *obs.Counter
	tracer  *obs.Tracer
}

// uplinkSink is the parent side of the registry's shard uplink.
type uplinkSink struct{ arrived chan struct{} }

func (u uplinkSink) AcceptPartial(*core.Partial) bool {
	u.arrived <- struct{}{}
	return true
}

func (u uplinkSink) HandleSubtreeRejoinMsg(*core.SubtreeRejoin) error { return nil }

func initialVectors(in *input) [][]float64 {
	out := make([][]float64, len(in.feeders))
	for i, fd := range in.feeders {
		out[i] = linalg.Clone(fd.vector())
	}
	return out
}

func newFixtures(seed int64) (*fixtures, error) {
	fx := &fixtures{seed: seed, counter: obs.NewCounter(), tracer: obs.NewTracer(1024)}
	var err error

	// Sketch group: initial sync ships the matrix, a forced second one gives
	// the matrix-free Sync every later resolution sends.
	if fx.skIn, err = sketchInput("churn", 8, 64, seed); err != nil {
		return nil, err
	}
	if fx.sk, err = startProc(fx.skIn.mon, initialVectors(fx.skIn), topoFlat, true, nil, nil); err != nil {
		return nil, err
	}
	if err = fx.sk.resync(); err != nil {
		return nil, err
	}
	fx.skVec = linalg.Clone(fx.skIn.feeders[0].vector())
	fx.diff = make([]float64, len(fx.skVec))
	fx.violation = &core.Violation{NodeID: 0, Kind: core.ViolationSafeZone, X: fx.skVec}
	fx.syncBytes = fx.sk.comm.lastSync.Encode()
	fx.accA = make([]linalg.Acc, len(fx.skVec))
	fx.accB = make([]linalg.Acc, len(fx.skVec))
	linalg.AddVec(fx.accB, fx.skVec)

	// Two ingestors over node 0's warmed sketch and zone: one elides, one
	// checks every event. They are fed an event and its inverse in turn, so
	// the sketch never leaves the zone.
	for _, elide := range []bool{true, false} {
		in, err := sketchInput("churn", 1, 1, seed)
		if err != nil {
			return nil, err
		}
		ing, err := ingest.NewNodeIngestor(0, in.mon.f, in.feeders[0].(*sketchFeeder).src, ingest.Options{Elide: elide})
		if err != nil {
			return nil, err
		}
		ing.Node().ApplySync(fx.sk.comm.matrixSync)
		ing.Node().ApplySync(fx.sk.comm.lastSync)
		if elide {
			fx.elided = ing
		} else {
			fx.exact = ing
		}
	}
	fx.flip = sketch.Update{Item: 3, Delta: 1}

	kldIn := histogramInput(8, 8, seed)
	if fx.kld, err = startProc(kldIn.mon, initialVectors(kldIn), topoFlat, false, nil, nil); err != nil {
		return nil, err
	}
	z := fx.kld.nodes[0].Zone()
	fx.kldX = linalg.Clone(z.X0)
	d := len(fx.kldX)
	fx.hess = linalg.NewMat(d, d)
	fx.grad = make([]float64, d)
	lm, lM, vMin, vMax, err := fx.kld.mon.f.ExtremeEigsAt(fx.kldX)
	if err != nil {
		return nil, err
	}
	fx.spec = core.X0Spectrum{LamMin: lm, LamMax: lM, VMin: vMin, VMax: vMax}

	treeIn := driftInput(256, 2, seed)
	if fx.tree, err = startProc(treeIn.mon, initialVectors(treeIn), topoTree64, false, nil, nil); err != nil {
		return nil, err
	}
	fx.partial = &core.Partial{
		ShardID: 0, NodeID: -1, Weight: 1,
		Epoch: fx.tree.coord.(*shard.Tree).Epoch(),
		Accs:  make([]linalg.Acc, fleetDim),
	}
	linalg.AddVec(fx.partial.Accs, treeIn.feeders[0].vector())

	fx.arrived = make(chan struct{}, 1)
	opts := transport.Options{Batch: transport.BatchOptions{MaxBytes: 64 << 10, MaxDelay: time.Millisecond}}
	if fx.listener, err = transport.ListenSubtreeParent("127.0.0.1:0", uplinkSink{fx.arrived}, opts); err != nil {
		return nil, err
	}
	if fx.uplink, err = transport.DialSubtreeParent(fx.listener.Addr(), opts); err != nil {
		fx.listener.Close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixtures) close() {
	fx.uplink.Close()
	fx.listener.Close()
}

// sink keeps results alive so the compiler cannot drop a timed call.
var sink struct {
	f float64
	b bool
	n int
	v *core.Violation
}

// op returns the timed body for one registry entry: it runs the layer call n
// times and reports whether the batch counts (the eliding ingestor's does
// only when none of its n events needed an exact check).
func (fx *fixtures) op(name string) func(n int) (bool, error) {
	skNode, kldNode := fx.sk.nodes[0], fx.kld.nodes[0]
	skZone, kldZone := skNode.Zone(), kldNode.Zone()
	skF, kldF := fx.sk.mon.f, fx.kld.mon.f
	dec := fx.kld.mon.cfg.Decomp
	bound := func(b core.EigBackend) func(n int) (bool, error) {
		return func(n int) (bool, error) {
			for i := 0; i < n; i++ {
				res, err := core.BounderFor(b).BoundEigs(kldF, fx.kldX, kldZone.BLo, kldZone.BHi, fx.spec, dec)
				if err != nil {
					return false, err
				}
				sink.f = res.LamMax
			}
			return true, nil
		}
	}
	loop := func(body func()) func(n int) (bool, error) {
		return func(n int) (bool, error) {
			for i := 0; i < n; i++ {
				body()
			}
			return true, nil
		}
	}
	switch name {
	case "ingest.ingest_elided_ns":
		return func(n int) (bool, error) {
			before := fx.elided.Stats().Checks
			for i := 0; i < n; i++ {
				sink.v = fx.elided.Ingest(fx.flip)
				fx.flip.Delta = -fx.flip.Delta
			}
			return fx.elided.Stats().Checks == before, nil
		}
	case "ingest.ingest_exact_ns":
		return loop(func() {
			sink.v = fx.exact.Ingest(fx.flip)
			fx.flip.Delta = -fx.flip.Delta
		})
	case "core.node.spend_budget_ns":
		return loop(func() { sink.b = skNode.SpendBudget(0) })
	case "core.node.check_e_ns":
		return loop(func() { sink.v = skNode.Check() })
	case "core.node.check_x_ns":
		return loop(func() { sink.v = kldNode.Check() })
	case "core.node.apply_sync_ns":
		return loop(func() { skNode.ApplySync(fx.sk.comm.lastSync) })
	case "core.zone.contains_e_ns":
		return loop(func() { sink.b = skZone.ContainsScratch(skF, fx.skVec, fx.diff) })
	case "core.zone.contains_x_ns":
		return loop(func() { sink.b = kldZone.ContainsScratch(kldF, fx.kldX, nil) })
	case "core.codec.encode_violation_ns":
		return loop(func() { sink.n = len(fx.violation.Encode()) })
	case "core.codec.encode_sync_ns":
		return loop(func() { sink.n = len(fx.sk.comm.lastSync.Encode()) })
	case "core.codec.decode_sync_ns":
		return func(n int) (bool, error) {
			for i := 0; i < n; i++ {
				if _, err := core.Decode(fx.syncBytes); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	case "core.codec.partial_roundtrip_ns":
		return func(n int) (bool, error) {
			for i := 0; i < n; i++ {
				if _, err := core.Decode(fx.partial.Encode()); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	case "transport.uplink_partial_us":
		return func(n int) (bool, error) {
			for i := 0; i < n; i++ {
				if err := fx.uplink.SendPartial(fx.partial); err != nil {
					return false, err
				}
				if err := fx.uplink.Flush(); err != nil {
					return false, err
				}
				select {
				case <-fx.arrived:
				case <-time.After(readyTimeout):
					return false, errors.New("uplink partial never arrived")
				}
			}
			return true, nil
		}
	case "core.zone.decompose_x_lbfgs_us":
		return bound(core.BackendLBFGS)
	case "core.zone.decompose_x_interval_us":
		return bound(core.BackendInterval)
	case "core.zone.decompose_x_hybrid_us":
		return bound(core.BackendHybrid)
	case "core.zone.decompose_e_ms":
		return func(n int) (bool, error) {
			for i := 0; i < n; i++ {
				if _, err := core.DecomposeE(skF, fx.skVec); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	case "linalg.acc_addvec_ns_per_dim":
		return loop(func() { linalg.AddVec(fx.accA, fx.skVec) })
	case "linalg.acc_mergevec_ns_per_dim":
		return loop(func() { linalg.MergeVec(fx.accA, fx.accB) })
	case "linalg.acc_round_ns":
		return loop(func() { sink.f = fx.accA[0].Round() })
	case "linalg.eigensym_ms":
		kldF.Hessian(fx.kldX, fx.hess)
		return func(n int) (bool, error) {
			for i := 0; i < n; i++ {
				if _, _, err := linalg.EigenSym(fx.hess, true); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	case "autodiff.value_ns":
		return loop(func() { sink.f = kldF.Value(fx.kldX) })
	case "autodiff.grad_ns":
		return loop(func() { sink.f = kldF.Grad(fx.kldX, fx.grad) })
	case "autodiff.hessian_us":
		return loop(func() { kldF.Hessian(fx.kldX, fx.hess) })
	case "shard.accept_partial_ns":
		tree := fx.tree.coord.(*shard.Tree)
		return loop(func() { sink.b = tree.AcceptPartial(fx.partial) })
	case "obs.counter_inc_ns":
		return loop(func() { fx.counter.Inc() })
	case "obs.tracer_record_ns":
		return loop(func() { fx.tracer.Record("bench", 0, 1, "") })
	}
	return nil
}

// sizes are the registry's byte-valued entries.
func (fx *fixtures) size(name string) float64 {
	switch name {
	case "core.codec.sync_bytes":
		return float64(len(fx.syncBytes))
	case "core.codec.partial_bytes":
		return float64(len(fx.partial.Encode()))
	}
	return 0
}
