package main

// drive.go is the load generator. The load model is a closed loop: two driver
// goroutines in this process, each owning half the nodes and offering its
// nodes' events round-robin; a node's next event is offered only when its
// previous update call has returned, which is how the system itself works
// (an update blocks its caller until the violation it raised is resolved).
//
// A run is a sequence of laps. Every lap builds a fresh system from the same
// seeded input, offers the workload's fixed number of events, checks the
// estimate against the exact reference at four checkpoints and tears the
// system down, so laps are repeatable units and --seconds only decides how
// many there are. A fleet lap is a pure function of the seed, so driver 0 also
// stamps the same 16 rounds of every lap, and run.go builds the fleet's
// reported lap out of the least disturbed execution of each of those slices.

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	drivers      = 2
	checksPerLap = 4 // three inside the lap and one at its end
	// slicesPerLap (fleets) is a multiple of checksPerLap, so every checkpoint
	// falls on a slice boundary and its pause belongs to no slice.
	slicesPerLap = 16
	quietPoll    = 2 * time.Millisecond
	quietTimeout = 10 * time.Second
	checkTol     = 1e-9 // float slack on |estimate − f(x̄)| ≤ ε
)

// lapResult is everything one lap measured.
type lapResult struct {
	setupNs    int64
	events     int64
	wallNs     int64 // measured phase, checkpoint pauses excluded
	cpuNs      int64
	mallocs    uint64
	heapLive   int64
	msgs       int64 // protocol messages, both directions
	wire       int64 // wire bytes (sockets) or encoded payload bytes (fleets)
	resolve    []int64
	slices     []lapSlice // fleets only
	failed     int64
	failures   []string
	checks     int
	proto      protoStats
	traffic    wireStats
	faults     faults
	elided     int64
	registerNs int64
	initNs     int64
	estimate   float64

	// Traced laps only.
	shards          []*traceShard
	driverWall      []int64
	pre, turn, post []int64
	pullService     []int64
	machine         *machineTrace
	resyncNs        []int64
}

// lapSlice is a fleet's passage between two fixed rounds of a lap, as driver 0
// sees it: the drivers meet at a barrier twice a round, so its clock is the
// fleet's.
type lapSlice struct {
	wallNs  int64
	cpuNs   int64 // process CPU over the same interval
	samples int   // resolve samples taken when the slice ended
}

// maxFailureLines caps how many failure messages a lap keeps; failed counts
// them all.
const maxFailureLines = 20

func (r *lapResult) failf(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// meter accumulates wall time, process CPU time and heap allocations over the
// measured phase; checkpoints pause it.
type meter struct {
	wallNs, cpuNs int64
	mallocs       uint64
	t0            time.Time
	cpu0          int64
	m0            uint64
}

func (m *meter) resume() {
	m.m0 = mallocCount()
	m.cpu0 = processCPU()
	m.t0 = time.Now()
}

func (m *meter) pause() {
	m.wallNs += time.Since(m.t0).Nanoseconds()
	m.cpuNs += processCPU() - m.cpu0
	m.mallocs += mallocCount() - m.m0
}

// processCPU is user+system CPU time of this process in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// barrier is a reusable rendezvous for the driver goroutines.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// lapRun is the state the drivers of one lap share.
type lapRun struct {
	w       *workload
	in      *input
	nodes   int
	perNode int
	clk     clock
	res     *lapResult
	bar     *barrier
	m       meter
	abort   atomic.Bool
	checks  []int // event indices before which the drivers rendezvous
	starts  []int // fleet: rounds at which a slice starts
	resolve [drivers][]int64
	mu      sync.Mutex // guards res.failures and the traced sample slices

	sock  *sockSystem
	conns []*stampConn
	proc  *procSystem
	viol  [drivers][]int // fleet: nodes whose offer raised a violation this round

	// Baselines taken at the end of set-up.
	heapBase            int64
	sockBase            wireStats
	procMsgs, procBytes int64

	traced bool
}

func (r *lapRun) fail(format string, args ...any) {
	r.mu.Lock()
	r.res.failf(format, args...)
	r.mu.Unlock()
}

func checkpointsFor(perNode int) []int {
	var at []int
	for c := 1; c < checksPerLap; c++ {
		at = append(at, perNode*c/checksPerLap)
	}
	return at
}

// sliceStarts cuts a fleet lap into slicesPerLap runs of whole rounds (fewer
// when the lap is shorter than that) and returns where each starts.
func sliceStarts(perNode int) []int {
	n := min(slicesPerLap, perNode)
	at := make([]int, n)
	for s := range at {
		at[s] = perNode * s / n
	}
	return at
}

// slicer times the fleet's slices on driver 0. A slice ends where the next
// starts (lapRun.starts); a checkpoint between the two is outside both.
type slicer struct {
	r    *lapRun
	t0   int64
	cpu0 int64
}

func (s *slicer) open() {
	s.cpu0 = processCPU()
	s.t0 = s.r.clk.now()
}

func (s *slicer) close() {
	s.r.res.slices = append(s.r.res.slices, lapSlice{
		wallNs: s.r.clk.now() - s.t0, cpuNs: processCPU() - s.cpu0, samples: len(s.r.resolve[0]),
	})
}

// mean returns x̄ recomputed from the inputs: the average of every node's
// current local vector as its feeder holds it.
func (r *lapRun) mean() []float64 {
	avg := make([]float64, r.in.mon.dim())
	for _, fd := range r.in.feeders {
		for j, v := range fd.vector() {
			avg[j] += v
		}
	}
	for j := range avg {
		avg[j] /= float64(len(r.in.feeders))
	}
	return avg
}

// check is one correctness checkpoint. No update is in flight when it runs.
// Over sockets it first waits until no endpoint has sent or received a
// message for two polls (a resolution may still be fanning out), then asserts
// the deterministic guarantee |estimate − f(x̄)| ≤ ε.
func (r *lapRun) check() {
	r.res.checks++
	var est float64
	if r.sock != nil {
		deadline := time.Now().Add(quietTimeout)
		last, stable := r.sock.activity(), 0
		for stable < 2 {
			time.Sleep(quietPoll)
			cur := r.sock.activity()
			if cur == last {
				stable++
			} else {
				stable, last = 0, cur
			}
			if time.Now().After(deadline) {
				r.fail("checkpoint %d: system never went quiet", r.res.checks)
				return
			}
		}
		if err := r.sock.coordErr(); err != nil {
			r.fail("checkpoint %d: coordinator error: %v", r.res.checks, err)
		}
		est = r.sock.estimate()
	} else {
		est = r.proc.estimate()
	}
	truth := r.in.mon.value(r.mean())
	if d := math.Abs(est - truth); !(d <= r.in.mon.eps()*(1+checkTol)+checkTol) {
		r.fail("checkpoint %d: |estimate %.6g − f(x̄) %.6g| = %.3g > ε = %g", r.res.checks, est, truth, d, r.in.mon.eps())
	}
}

// rendezvous stops both drivers, lets driver 0 run a checkpoint with the
// meter paused, and releases them. It returns how long the caller was held
// after everyone had arrived, which is not part of its measured wall time.
func (r *lapRun) rendezvous(g int, sh *traceShard, prev *int64, final bool) int64 {
	r.bar.wait()
	t1 := r.clk.now()
	if sh != nil {
		sh.add(spBarrier, *prev, t1, false)
	}
	if g == 0 {
		r.m.pause()
		r.check()
		if !final {
			r.m.resume()
		}
	}
	r.bar.wait()
	t2 := r.clk.now()
	*prev = t2
	return t2 - t1
}

// driveSock is one driver's loop over its socket nodes.
func (r *lapRun) driveSock(g int) {
	lo, hi := g*r.nodes/drivers, (g+1)*r.nodes/drivers
	var sh *traceShard
	advKind, vecKind := spGen, spGen
	if r.traced {
		sh = r.res.shards[g]
		if r.w.elide {
			advKind, vecKind = spApply, spVector
		}
	}
	sys := r.sock
	next := 0
	start := r.clk.now()
	prev := start
	var paused int64
	for k := 0; k < r.perNode; k++ {
		if next < len(r.checks) && k == r.checks[next] {
			next++
			paused += r.rendezvous(g, sh, &prev, false)
		}
		if r.abort.Load() {
			continue
		}
		for i := lo; i < hi; i++ {
			fd := r.in.feeders[i]
			if sh == nil {
				fd.advance(k)
				x := fd.vector()
				sent := sys.nodeMsgsSent(i)
				t0 := r.clk.now()
				err := sys.update(i, x)
				if sys.nodeMsgsSent(i) != sent {
					r.resolve[g] = append(r.resolve[g], r.clk.now()-t0)
				}
				if err != nil {
					r.fail("node %d event %d: %v", i, k, err)
					r.abort.Store(true)
				}
				continue
			}
			fd.advance(k)
			tA := r.clk.now()
			x := fd.vector()
			tB := r.clk.now()
			sc := r.conns[i]
			sc.firstWrite.Store(0)
			sc.inCall.Store(true)
			sent := sys.nodeMsgsSent(i)
			err := sys.update(i, x)
			tC := r.clk.now()
			sc.inCall.Store(false)
			sh.add(advKind, prev, tA, false)
			sh.add(vecKind, tA, tB, false)
			if sys.nodeMsgsSent(i) != sent {
				sh.add(spBlocked, tB, tC, true)
				r.resolve[g] = append(r.resolve[g], tC-tB)
				r.splitBlocked(sh, sc, i, tB, tC)
			} else {
				sh.add(spFast, tB, tC, false)
			}
			prev = tC
			if err != nil {
				r.fail("node %d event %d: %v", i, k, err)
				r.abort.Store(true)
			}
		}
	}
	paused += r.rendezvous(g, sh, &prev, true)
	r.res.driverWall[g] = (r.clk.now() - start) - paused
}

// splitBlocked divides one blocked update call [t0, t1) at the socket
// boundary: entry → first Write, first Write → last Read, last Read → return.
func (r *lapRun) splitBlocked(sh *traceShard, sc *stampConn, node int, t0, t1 int64) {
	fw, lr := sc.firstWrite.Load(), sc.lastRead.Load()
	if fw < t0 || lr < fw || lr > t1 {
		return // the call talked on a replaced connection or only answered a pull
	}
	r.mu.Lock()
	r.res.pre = append(r.res.pre, fw-t0)
	r.res.turn = append(r.res.turn, lr-fw)
	r.res.post = append(r.res.post, t1-lr)
	r.mu.Unlock()
	if id := sh.keepSpan(spanNames[spBlocked], t0, t1, 0, node); id != 0 {
		sh.keepSpan("transport.node_pre", t0, fw, id, node)
		sh.keepSpan("transport.turnaround", fw, lr, id, node)
		sh.keepSpan("transport.node_post", lr, t1, id, node)
	}
}

// driveFleet is one driver's loop over its in-process nodes. A round has two
// phases: every driver offers the round's sample to each of its nodes (the
// node-side check, in parallel), then driver 0 hands the queued violations to
// the coordinator in node order while the other waits — the coordinator is a
// single state machine either way, and a fixed order makes a run a pure
// function of its seed, so message counts are exact.
func (r *lapRun) driveFleet(g int) {
	lo, hi := g*r.nodes/drivers, (g+1)*r.nodes/drivers
	var sh *traceShard
	if r.traced {
		sh = r.res.shards[g]
	}
	sys := r.proc
	next := 0
	start := r.clk.now()
	prev := start
	var paused int64
	sl, nextSlice := slicer{r: r}, 0
	for k := 0; k < r.perNode; k++ {
		begin := g == 0 && nextSlice < len(r.starts) && k == r.starts[nextSlice]
		if begin && nextSlice > 0 {
			sl.close()
		}
		if next < len(r.checks) && k == r.checks[next] {
			next++
			paused += r.rendezvous(g, sh, &prev, false)
		}
		if begin {
			sl.open()
			nextSlice++
		}
		mine := r.viol[g][:0]
		for i := lo; i < hi; i++ {
			fd := r.in.feeders[i]
			fd.advance(k)
			x := fd.vector()
			if sh == nil {
				if sys.offer(i, x) {
					mine = append(mine, i)
				}
				continue
			}
			tA := r.clk.now()
			if sys.offer(i, x) {
				mine = append(mine, i)
			}
			tB := r.clk.now()
			sh.add(spGen, prev, tA, false)
			sh.add(spOffer, tA, tB, false)
			prev = tB
		}
		r.viol[g] = mine
		r.bar.wait()
		tP := r.clk.now()
		if sh != nil {
			sh.add(spBarrier, prev, tP, false)
			prev = tP
		}
		if g == 0 {
			r.resolveRound(sh)
			if sh != nil {
				prev = r.clk.now()
				sh.add(spResolve, tP, prev, false)
			}
		}
		r.bar.wait()
	}
	if g == 0 {
		sl.close()
	}
	paused += r.rendezvous(g, sh, &prev, true)
	r.res.driverWall[g] = (r.clk.now() - start) - paused
}

// resolveRound reports the round's queued violations in node order. A fleet
// has no transport and no queue of its own, so a violation's latency here is
// the coordinator call that resolves it; the wait behind the round's earlier
// violations is an artefact of offering whole rounds at once and is left out.
func (r *lapRun) resolveRound(sh *traceShard) {
	sys := r.proc
	since := sys.resolutions
	for g := 0; g < drivers; g++ {
		for _, i := range r.viol[g] {
			t0 := r.clk.now()
			called, err := sys.resolve(i, since)
			if err != nil {
				r.fail("node %d: resolve: %v", i, err)
			}
			if !called {
				continue
			}
			t1 := r.clk.now()
			r.resolve[0] = append(r.resolve[0], t1-t0)
			if sh != nil {
				r.res.machine.finish(t0, t1)
				sh.keepSpan("core.machine.handle_violation", t0, t1, 0, i)
			}
		}
	}
}

// runLap builds a fresh system, runs the measured phase and tears it down.
func runLap(w *workload, nodes, perNode int, seed int64, traced bool) (*lapResult, error) {
	r, err := setUp(w, nodes, perNode, seed, traced)
	if err != nil {
		return nil, err
	}
	defer r.tearDown()
	r.measure()
	return r.res, nil
}

// setupOnly builds a system and tears it down again without offering it an
// event; a run does this a few times so set-up time is a median of more than
// its laps.
func setupOnly(w *workload, nodes, perNode int, seed int64) (int64, error) {
	r, err := setUp(w, nodes, perNode, seed, false)
	if err != nil {
		return 0, err
	}
	r.tearDown()
	return r.res.setupNs, nil
}

func (r *lapRun) tearDown() {
	if r.sock != nil {
		r.sock.close()
	}
}

// setUp is what setup_s times: generate the input from the seed, warm the
// sketches or fill the windows, listen, dial and register every node, and run
// the initial full sync (the ADCD-E decomposition at d = 256, the first ADCD-X
// build at d = 100, or 8192 pulls and syncs).
func setUp(w *workload, nodes, perNode int, seed int64, traced bool) (*lapRun, error) {
	res := &lapResult{driverWall: make([]int64, drivers)}
	clk := clock{base: time.Now()}
	in, err := w.gen(nodes, perNode, seed)
	if err != nil {
		return nil, err
	}
	genNs := clk.now()
	heapBase := liveHeap() // taken with the inputs reachable; not part of set-up
	t1 := clk.now()

	r := &lapRun{
		w: w, in: in, nodes: nodes, perNode: perNode, clk: clk, res: res,
		bar: newBarrier(drivers), checks: checkpointsFor(perNode), starts: sliceStarts(perNode),
		traced: traced, heapBase: heapBase,
	}
	if traced {
		for g := 0; g < drivers; g++ {
			res.shards = append(res.shards, &traceShard{driver: g + 1})
		}
	}
	initial := initialVectors(in)

	if w.sock {
		var dial func(node int) dialFunc
		if traced {
			r.conns = make([]*stampConn, nodes)
			dial = func(node int) dialFunc {
				return func(network, addr string, timeout time.Duration) (net.Conn, error) {
					c, err := net.DialTimeout(network, addr, timeout)
					if err != nil {
						return nil, err
					}
					r.conns[node] = &stampConn{Conn: c, clk: clk}
					return r.conns[node], nil
				}
			}
		}
		sys, err := startSock(in.mon, initial, w.elide, dial)
		if err != nil {
			return nil, err
		}
		r.sock = sys
		res.registerNs = sys.registerNs
		r.sockBase = sys.traffic()
	} else {
		var hook func(k commKind, start, end int64)
		var now func() int64
		if traced {
			res.machine = &machineTrace{}
			hook, now = res.machine.hook, clk.now
		}
		sys, err := startProc(in.mon, initial, w.topo, false, now, hook)
		if err != nil {
			return nil, err
		}
		if traced {
			res.machine.closeInit(sys.initNs)
		}
		r.proc = sys
		res.initNs = sys.initNs
		r.procMsgs, r.procBytes = sys.msgs(), sys.payload()
	}
	res.setupNs = genNs + (clk.now() - t1)
	return r, nil
}

// measure runs the two drivers over the lap's events and collects what the
// system counted.
func (r *lapRun) measure() {
	w, res, clk := r.w, r.res, r.clk
	var wg sync.WaitGroup
	r.m.resume()
	for g := 0; g < drivers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if w.sock {
				r.driveSock(g)
			} else {
				r.driveFleet(g)
			}
		}(g)
	}
	wg.Wait()

	res.heapLive = liveHeap() - r.heapBase
	res.events = int64(r.nodes) * int64(r.perNode)
	res.wallNs, res.cpuNs, res.mallocs = r.m.wallNs, r.m.cpuNs, r.m.mallocs
	for g := range r.resolve {
		res.resolve = append(res.resolve, r.resolve[g]...)
	}
	if w.sock {
		res.traffic = r.sock.traffic().sub(r.sockBase)
		res.msgs, res.wire = res.traffic.msgs(), res.traffic.wire()
		res.proto = r.sock.proto()
		res.faults = r.sock.faults()
		res.elided = r.sock.elidedUpdates()
		res.estimate = r.sock.estimate()
		if n := res.faults.total(); n > 0 {
			res.failf("transport faults: %+v", res.faults)
		}
		for _, sc := range r.conns {
			if sc != nil {
				res.pullService = append(res.pullService, sc.takePulls()...)
			}
		}
	} else {
		res.msgs, res.wire = r.proc.msgs()-r.procMsgs, r.proc.payload()-r.procBytes
		res.proto = r.proc.proto()
		res.estimate = r.proc.estimate()
		if r.traced {
			// A forced full sync on the loaded fleet, outside the measured
			// phase: the per-sync cost at this n on its own.
			for i := 0; i < 3; i++ {
				t0 := clk.now()
				if err := r.proc.resync(); err != nil {
					res.failf("resync: %v", err)
				}
				res.resyncNs = append(res.resyncNs, clk.now()-t0)
				res.machine.discard()
			}
		}
	}
	runtime.KeepAlive(r.in)
}
