// Package transport is the real messaging fabric used to validate the
// simulation (§4.7): coordinator and nodes exchange the exact same
// core.Message bytes over TCP, with optional injected one-way latency
// standing in for the paper's us-west-2 ↔ us-east-2 WAN (28 ms each way,
// 56 ms RTT). Every frame is accounted twice: payload bytes (the §4.7
// "payload" series) and estimated wire bytes including framing and TCP/IP
// overhead (the "traffic" series Nethogs would report).
//
// Unlike the paper's prototype, the fabric is fault tolerant: per-frame
// deadlines bound every read and write, nodes reconnect with exponential
// backoff and re-register through a Rejoin message, and the coordinator
// tracks liveness — a silent or disconnected node is marked dead, excluded
// from lazy-sync balancing, and the estimate degrades to the live-node
// average (Coordinator.Degraded) instead of the whole run dying on the
// first dropped frame.
//
// The fabric is also multi-tenant: one coordinator process can host many
// independent monitoring groups (one function and node roster each) behind
// a single listener, routing frames by the GroupID every frame carries (one
// wire format, see frame.go; groups, see multi.go). Outbound messages to the
// same peer can be coalesced into one frame under a flush policy
// (Options.Batch), cutting per-message syscall, header, and simulated-WAN
// overhead on the violation-resolution hot path.
package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"automon/internal/core"
	"automon/internal/obs"
)

// perMessageWireOverhead approximates Ethernet + IP + TCP header bytes per
// frame (small AutoMon frames fit one segment each; a batch frame pays it
// once for all the messages it carries).
const perMessageWireOverhead = 66

// frameHeader is the tagged length word that opens every frame.
const frameHeader = 4

// maxFrameLen caps one encoded message: a frame carrying it alone must still
// fit the 28-bit body length. Anything larger is an error at the writer, and
// no first word can declare more to a reader.
const maxFrameLen = batchLenMask - batchHdrLen - batchSubHeader

// Fixed protocol timings no caller ever tuned.
const (
	// writeTimeout is the per-frame write deadline. A write that cannot
	// complete within it fails the connection, which the fault-tolerance
	// layer treats as a disconnect.
	writeTimeout = 10 * time.Second
	// reconnectMax caps the doubling reconnect backoff.
	reconnectMax = 2 * time.Second
	// registerWorkers bounds how many registration handshakes a coordinator
	// listener processes concurrently — the shared goroutine pool of a
	// multi-tenant process, sized independently of how many groups it hosts.
	registerWorkers = 32
)

// initialFrameAlloc bounds the up-front buffer for a frame body. The body is
// then read incrementally, so a lying length prefix can never force more
// allocation than bytes actually delivered (plus this constant).
const initialFrameAlloc = 64 << 10

var (
	// errMalformedFrame is the one protocol-class read error: the peer spoke,
	// but spoke garbage. It is distinguished from I/O errors (timeouts,
	// resets, EOF), which the fault-tolerance layer treats as survivable
	// connection churn.
	errMalformedFrame = errors.New("transport: malformed frame")
	// errFrameTooLarge refuses a message no frame can carry, at the writer.
	errFrameTooLarge = errors.New("transport: oversized frame")
	errNotConnected  = errors.New("transport: not connected")
)

// counterOr returns the registry's counter for name, or a standalone one
// when reg is nil — instrumented code always counts through a live counter
// so Stats-style accessors never report stale zeros.
func counterOr(reg *obs.Registry, name, help string) *obs.Counter {
	if c := reg.Counter(name, help); c != nil {
		return c
	}
	return obs.NewCounter()
}

// histogramOr is counterOr for histograms.
func histogramOr(reg *obs.Registry, name, help string, bounds []float64) *obs.Histogram {
	if h := reg.Histogram(name, help, bounds); h != nil {
		return h
	}
	return obs.NewHistogram(bounds)
}

// TrafficStats counts one side's traffic. The fields are obs counters (views
// over the same instruments a registry scrape reads), updated atomically and
// safe for concurrent reads via Load. The accounting identity
//
//	Wire = Payload + Frames·(frameHeader + perMessageWireOverhead) + BatchOverhead
//
// holds on both directions at all times, including under injected faults.
// Without batching every message is its own frame and BatchOverhead is
// batchHdrLen + batchSubHeader per message.
//
// The zero value works: counters are created lazily on first use. Bind
// attaches the counters to a registry (and optionally a tracer for per-frame
// events) and must be called before the endpoint starts concurrent I/O —
// ListenCoordinator, ListenMulti and DialNode do this during construction.
type TrafficStats struct {
	MessagesSent     *obs.Counter
	MessagesReceived *obs.Counter
	PayloadSent      *obs.Counter
	PayloadReceived  *obs.Counter
	WireSent         *obs.Counter
	WireReceived     *obs.Counter
	// FramesSent/FramesReceived count physical frames. Equal to the message
	// counters when batching is off; lower when coalescing merges messages.
	FramesSent     *obs.Counter
	FramesReceived *obs.Counter
	// BatchOverheadSent/BatchOverheadReceived count the batch header and
	// per-message sub-header bytes, so the wire identity stays exact.
	BatchOverheadSent     *obs.Counter
	BatchOverheadReceived *obs.Counter

	once   sync.Once
	tracer *obs.Tracer
	peer   int // node id stamped on trace events; -1 on the coordinator side
}

// ensure materializes any counters still nil. Safe to race via sync.Once;
// after the first call the pointer fields never change again.
func (s *TrafficStats) ensure() {
	s.once.Do(func() {
		for _, c := range []**obs.Counter{
			&s.MessagesSent, &s.MessagesReceived,
			&s.PayloadSent, &s.PayloadReceived,
			&s.WireSent, &s.WireReceived,
			&s.FramesSent, &s.FramesReceived,
			&s.BatchOverheadSent, &s.BatchOverheadReceived,
		} {
			if *c == nil {
				*c = obs.NewCounter()
			}
		}
	})
}

// Bind registers the counters under automon_transport_* names carrying the
// given label set (e.g. `side="coordinator"` or `side="node",node="3"`), and
// installs a tracer for frame events. reg and tracer may be nil. Must run
// before the endpoint serves traffic concurrently.
func (s *TrafficStats) Bind(reg *obs.Registry, labelSet string, tracer *obs.Tracer, peer int) {
	s.ensure()
	s.tracer = tracer
	s.peer = peer
	lbl := func(extra string) string {
		if labelSet == "" {
			return "{" + extra + "}"
		}
		return "{" + extra + "," + labelSet + "}"
	}
	const (
		msgsHelp    = "Messages exchanged by a transport endpoint."
		payloadHelp = "Encoded message payload bytes, the paper's payload series."
		wireHelp    = "Estimated wire bytes including framing and TCP/IP overhead."
		framesHelp  = "Physical frames exchanged; batching coalesces messages into fewer frames."
		batchHelp   = "Batch header and sub-header bytes, part of the wire-byte identity."
	)
	reg.RegisterCounter("automon_transport_messages_total"+lbl(`dir="sent"`), msgsHelp, s.MessagesSent)
	reg.RegisterCounter("automon_transport_messages_total"+lbl(`dir="recv"`), msgsHelp, s.MessagesReceived)
	reg.RegisterCounter("automon_transport_payload_bytes_total"+lbl(`dir="sent"`), payloadHelp, s.PayloadSent)
	reg.RegisterCounter("automon_transport_payload_bytes_total"+lbl(`dir="recv"`), payloadHelp, s.PayloadReceived)
	reg.RegisterCounter("automon_transport_wire_bytes_total"+lbl(`dir="sent"`), wireHelp, s.WireSent)
	reg.RegisterCounter("automon_transport_wire_bytes_total"+lbl(`dir="recv"`), wireHelp, s.WireReceived)
	reg.RegisterCounter("automon_transport_frames_total"+lbl(`dir="sent"`), framesHelp, s.FramesSent)
	reg.RegisterCounter("automon_transport_frames_total"+lbl(`dir="recv"`), framesHelp, s.FramesReceived)
	reg.RegisterCounter("automon_transport_batch_overhead_bytes_total"+lbl(`dir="sent"`), batchHelp, s.BatchOverheadSent)
	reg.RegisterCounter("automon_transport_batch_overhead_bytes_total"+lbl(`dir="recv"`), batchHelp, s.BatchOverheadReceived)
}

// countSendBatch accounts one sent frame: per-message payload counts and
// trace events, one frame, and the batch header bytes that keep the wire
// identity exact.
func (s *TrafficStats) countSendBatch(sizes []int, types []string) {
	s.ensure()
	total := 0
	for i, sz := range sizes {
		s.MessagesSent.Inc()
		s.PayloadSent.Add(int64(sz))
		s.tracer.Record(obs.EventFrameSent, s.peer, float64(sz), types[i])
		total += sz
	}
	over := batchHdrLen + len(sizes)*batchSubHeader
	s.FramesSent.Inc()
	s.BatchOverheadSent.Add(int64(over))
	s.WireSent.Add(int64(total + over + frameHeader + perMessageWireOverhead))
}

// countRecvBatch is countSendBatch for the inbound direction.
func (s *TrafficStats) countRecvBatch(msgs []core.Message, sizes []int) {
	s.ensure()
	total := 0
	for i, m := range msgs {
		s.MessagesReceived.Inc()
		s.PayloadReceived.Add(int64(sizes[i]))
		s.tracer.Record(obs.EventFrameReceived, s.peer, float64(sizes[i]), m.Type().String())
		total += sizes[i]
	}
	over := batchHdrLen + len(msgs)*batchSubHeader
	s.FramesReceived.Inc()
	s.BatchOverheadReceived.Add(int64(over))
	s.WireReceived.Add(int64(total + over + frameHeader + perMessageWireOverhead))
}

// Options configure both endpoints.
type Options struct {
	// Latency is the injected one-way delay per frame (0 = none). Batching
	// pays it once per frame, which is exactly the saving a real WAN gives.
	Latency time.Duration
	// DialTimeout bounds node connection attempts (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds a coordinator data-request round trip (default
	// 30s). On expiry the node is marked dead and its connection recycled.
	RequestTimeout time.Duration
	// RegisterTimeout bounds reading the first (registration or rejoin)
	// frame of a new connection (default 10s).
	RegisterTimeout time.Duration
	// ResolveTimeout bounds how long NodeClient.Update waits for a violation
	// to resolve (default 30s).
	ResolveTimeout time.Duration
	// MaxReconnectAttempts is how many times a node retries a lost
	// connection before giving up for good. 0 means the default of 6;
	// negative disables reconnection entirely (a connection error is
	// immediately fatal to the client, the pre-fault-tolerance behavior).
	MaxReconnectAttempts int
	// ReconnectBase is the first reconnect backoff (default 50ms); each
	// attempt doubles it up to 2s. The actual sleep is jittered uniformly
	// over [backoff/2, backoff], from an RNG seeded by the node id.
	ReconnectBase time.Duration
	// Dial replaces net.DialTimeout for node connections. The chaos package
	// uses it to interpose fault-injecting connections.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	// Group is the monitoring group a NodeClient belongs to; every frame it
	// sends carries the tag.
	Group GroupID
	// Batch configures outbound frame batching (see BatchOptions). The zero
	// value disables coalescing.
	Batch BatchOptions

	// Metrics, when set, receives every transport and protocol instrument of
	// the endpoint (scraped via obs.Serve). Nil leaves the counters
	// unregistered but still live — Stats snapshots keep working.
	Metrics *obs.Registry
	// Tracer, when set, records structured protocol events (frames, deaths,
	// syncs, reconnects). Nil disables tracing at a single branch per event.
	Tracer *obs.Tracer
}

func (o *Options) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.RegisterTimeout <= 0 {
		o.RegisterTimeout = 10 * time.Second
	}
	if o.ResolveTimeout <= 0 {
		o.ResolveTimeout = 30 * time.Second
	}
	if o.MaxReconnectAttempts == 0 {
		o.MaxReconnectAttempts = 6
	}
	if o.ReconnectBase <= 0 {
		o.ReconnectBase = 50 * time.Millisecond
	}
	if o.Dial == nil {
		o.Dial = net.DialTimeout
	}
}

// Coordinator runs the AutoMon coordinator for one monitoring group. Create
// it with ListenCoordinator (a dedicated single-group listener) or
// MultiCoordinator.AddGroup (one group of a multi-tenant process); wait for
// Ready, and read Estimate while nodes stream updates. Node connections may
// come and go: a lost node is marked dead and the estimate degrades to the
// live-node average until it rejoins.
type Coordinator struct {
	srv  *MultiCoordinator
	gid  GroupID
	f    *core.Function
	n    int
	cfg  core.Config
	opts Options
	// Stats counts this group's traffic. Under ListenCoordinator it is the
	// whole endpoint's traffic (including registration reads); under a
	// MultiCoordinator it covers the group's connections after registration,
	// with registration reads accounted on MultiCoordinator.Stats.
	Stats TrafficStats

	deadlineHits   *obs.Counter // data-request round trips that timed out
	shedViolations *obs.Counter // violation reports dropped on a full queue
	tracer         *obs.Tracer

	mu    sync.Mutex // guards coord (single resolution at a time)
	coord *core.Coordinator

	connsMu     sync.Mutex // guards conns, registered, initStarted
	conns       []*coordConn
	registered  int
	initStarted bool

	ready  chan struct{}
	violCh chan *core.Violation
	deadCh chan int
	done   chan struct{}
	err    atomic.Value // first fatal error of this group
	closed atomic.Bool
	wg     sync.WaitGroup
}

type coordConn struct {
	id       int
	conn     net.Conn
	w        *frameWriter
	dataCh   chan *core.DataResponse
	gone     chan struct{} // closed when this connection's reader exits
	goneOnce sync.Once
}

func (cc *coordConn) markGone() { cc.goneOnce.Do(func() { close(cc.gone) }) }

func (cc *coordConn) isGone() bool {
	select {
	case <-cc.gone:
		return true
	default:
		return false
	}
}

// ListenCoordinator starts a single-group coordinator for n nodes on addr
// (use "127.0.0.1:0" for tests). Nodes must connect and register; Ready
// closes after the initial full sync completes. Internally this is a
// MultiCoordinator hosting exactly group 0: a registration for any other
// group is rejected and counted like any other bad registration.
func ListenCoordinator(addr string, f *core.Function, n int, cfg core.Config, opts Options) (*Coordinator, error) {
	opts.defaults()
	mc, err := newMulti(addr, opts, true)
	if err != nil {
		return nil, err
	}
	c, err := mc.addGroup(0, f, n, cfg)
	if err != nil {
		mc.ln.Close()
		return nil, err
	}
	// The sole group's stats are the endpoint's stats: registration reads
	// and per-connection traffic all land on the same instance, preserving
	// the single-tenant accounting exactly.
	mc.stats = &c.Stats
	c.Stats.Bind(opts.Metrics, `side="coordinator"`, opts.Tracer, -1)
	mc.start()
	return c, nil
}

// dispatch serializes every mutation of the core coordinator: violation
// resolutions and node-death full syncs both funnel through here, so
// connection readers stay free to route data responses. Queued violations
// are coalesced per node: while a resolution is running, every sync it fans
// out can prompt still-out-of-zone nodes to re-report, so only each node's
// freshest report is worth resolving — older ones carry stale vectors and
// would only multiply work.
//
// The dispatch queue draining is also the batching sync barrier: once no
// violation is waiting, every writer's pending batch is flushed so no node
// blocks on a sync stranded in a buffer. While a resolution storm is in
// flight, consecutive syncs to the same node coalesce into shared frames.
func (c *Coordinator) dispatch() {
	defer c.wg.Done()
	pending := make(map[int]*core.Violation)
	var order []int
	drain := func() {
		for {
			//automon:allow floatflow violation/death arrival order is inherent event multiplexing; coalescing keeps only each node's freshest report and §4 resolution converges from any order
			select {
			case v := <-c.violCh:
				if _, ok := pending[v.NodeID]; !ok {
					order = append(order, v.NodeID)
				}
				pending[v.NodeID] = v
			case id := <-c.deadCh:
				c.handleDead(id)
			default:
				return
			}
		}
	}
	for {
		if len(order) == 0 {
			c.flushAll()
			//automon:allow floatflow idle wait races shutdown against live events by design; the protocol state a violation produces does not depend on which arm wakes the loop
			select {
			case <-c.done:
				return
			case id := <-c.deadCh:
				c.handleDead(id)
				continue
			case v := <-c.violCh:
				pending[v.NodeID] = v
				order = append(order, v.NodeID)
			}
		}
		drain()
		if len(order) == 0 {
			continue
		}
		id := order[0]
		order = order[1:]
		v := pending[id]
		delete(pending, id)
		c.mu.Lock()
		coord := c.coord
		var err error
		if coord != nil {
			err = coord.HandleViolation(v)
		}
		c.mu.Unlock()
		if err != nil && !errors.Is(err, core.ErrNoLiveNodes) {
			c.fatal(err)
			return
		}
	}
}

// flushAll drains every live connection's pending batch — the explicit
// barrier of the flush policy. A no-op when batching is disabled.
func (c *Coordinator) flushAll() {
	if !c.opts.Batch.enabled() {
		return
	}
	c.connsMu.Lock()
	conns := make([]*coordConn, 0, len(c.conns))
	for _, cc := range c.conns {
		if cc != nil && !cc.isGone() {
			conns = append(conns, cc)
		}
	}
	c.connsMu.Unlock()
	for _, cc := range conns {
		if err := cc.w.flush(); err != nil {
			// The writer closed the connection; its reader reports the death
			// through the usual liveness path.
			continue
		}
	}
}

// handleDead folds a connection death into the core coordinator: the node is
// marked dead and the survivors re-synced, so the estimate degrades to the
// live-node average. If a newer connection already took the slot (a fast
// rejoin raced the death report), the event is stale and ignored.
func (c *Coordinator) handleDead(id int) {
	c.connsMu.Lock()
	cc := c.conns[id]
	replaced := cc != nil && !cc.isGone()
	c.connsMu.Unlock()
	if replaced {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord == nil || !c.coord.Live(id) {
		return
	}
	if err := c.coord.HandleDeparture(id); err != nil && !errors.Is(err, core.ErrNoLiveNodes) {
		c.fatal(err)
	}
}

// Addr returns the listen address (for nodes to dial).
func (c *Coordinator) Addr() string { return c.srv.Addr() }

// Group returns this coordinator's group id (0 under ListenCoordinator).
func (c *Coordinator) Group() GroupID { return c.gid }

// Ready is closed once all nodes registered and the initial sync finished.
func (c *Coordinator) Ready() <-chan struct{} { return c.ready }

// Err returns the first fatal error, if any — of this group or of the
// shared listener. Connection churn and bad registrations are not fatal;
// only listener failures and safe-zone construction errors are.
func (c *Coordinator) Err() error {
	if e := c.err.Load(); e != nil {
		return e.(error)
	}
	return c.srv.Err()
}

// Estimate returns the coordinator's current approximation of f over the
// average of the live nodes (of all nodes, when none are dead).
func (c *Coordinator) Estimate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord == nil {
		return 0
	}
	return c.coord.Estimate()
}

// Degraded reports whether any node is currently considered dead: the
// ε-guarantee then covers the live-node average only.
func (c *Coordinator) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coord != nil && c.coord.Degraded()
}

// LiveNodes returns how many nodes are currently considered reachable.
func (c *Coordinator) LiveNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord == nil {
		return 0
	}
	return c.coord.LiveCount()
}

// CoordStats snapshots the protocol statistics.
func (c *Coordinator) CoordStats() core.CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord == nil {
		return core.CoordStats{}
	}
	return c.coord.Stats()
}

// Close stops the group. Under ListenCoordinator (where the group owns the
// listener) it stops the whole endpoint; under a MultiCoordinator it closes
// only this group's connections and dispatcher — other tenants keep running.
func (c *Coordinator) Close() {
	if c.srv.single {
		c.srv.Close()
		return
	}
	c.closeGroup()
}

// closeGroup tears down this group's connections and dispatcher.
func (c *Coordinator) closeGroup() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.connsMu.Lock()
	for _, cc := range c.conns {
		if cc != nil {
			cc.conn.Close()
		}
	}
	c.connsMu.Unlock()
	close(c.done)
	c.wg.Wait()
}

// shutdown reports whether this group or the shared endpoint is closing.
func (c *Coordinator) shutdown() bool {
	return c.closed.Load() || c.srv.closed.Load()
}

func (c *Coordinator) fatal(err error) {
	if c.err.Load() == nil {
		c.err.Store(err)
	}
}

// register installs a connection for node id, kicks off the initial sync
// when it completes the roster, and reintegrates rejoining nodes with a full
// sync.
func (c *Coordinator) register(id int, conn net.Conn, x []float64) {
	cc := &coordConn{id: id, conn: conn, w: newFrameWriter(conn, c.gid, c.opts, &c.Stats),
		dataCh: make(chan *core.DataResponse, 4), gone: make(chan struct{})}
	c.connsMu.Lock()
	old := c.conns[id]
	c.conns[id] = cc
	startInit := false
	if old == nil {
		c.registered++
		if c.registered == c.n && !c.initStarted {
			c.initStarted = true
			startInit = true
		}
	}
	c.connsMu.Unlock()
	if old != nil {
		old.conn.Close() // retire the stale reader; its death event is ignored
	}
	// Serve the connection immediately so data requests can be answered.
	c.wg.Add(1)
	go c.serveConn(cc)

	if startInit {
		// All nodes registered: build the coordinator over the socket comm
		// and run the initial full sync.
		c.mu.Lock()
		c.coord = core.NewCoordinator(c.f, c.n, c.cfg, &socketComm{c: c})
		err := c.coord.Init()
		c.mu.Unlock()
		if err != nil && !errors.Is(err, core.ErrNoLiveNodes) {
			c.fatal(err)
			return
		}
		// Barrier: the initial syncs must reach every node before Ready.
		c.flushAll()
		close(c.ready)
		return
	}
	c.mu.Lock()
	if c.coord == nil {
		c.mu.Unlock()
		return // pre-init replacement; Init will pull from the new conn
	}
	err := c.coord.HandleRejoin([]int{id}, [][]float64{x})
	c.mu.Unlock()
	if err != nil && !errors.Is(err, core.ErrNoLiveNodes) {
		c.fatal(err)
		return
	}
	// Barrier: the rejoin full sync is complete; deliver its messages.
	c.flushAll()
}

func (c *Coordinator) serveConn(cc *coordConn) {
	defer c.wg.Done()
	defer cc.markGone()
	for {
		fb, err := readAnyFrame(cc.conn, 0, &c.Stats)
		if err != nil {
			cc.conn.Close()
			cc.markGone()
			if c.shutdown() {
				return
			}
			c.connsMu.Lock()
			current := c.conns[cc.id] == cc
			c.connsMu.Unlock()
			if current {
				//automon:allow floatflow death report races shutdown by design; both arms retire the connection and no value leaves the select
				select {
				case c.deadCh <- cc.id:
				case <-c.done:
				}
			}
			return
		}
		if fb.group != c.gid {
			// A registered connection suddenly speaking for another group
			// means the peer is confused; recycle the connection and let the
			// node rejoin cleanly.
			cc.conn.Close()
			continue
		}
		for _, m := range fb.msgs {
			c.route(cc, m)
		}
	}
}

// route handles one inbound message on a registered connection.
func (c *Coordinator) route(cc *coordConn, m core.Message) {
	switch msg := m.(type) {
	case *core.DataResponse:
		// Never block the reader; duplicates beyond the buffer are
		// dropped (RequestData drains stale entries before each request).
		select {
		case cc.dataCh <- msg:
		default:
		}
	case *core.Violation:
		// A full queue means a resolution storm is already in progress;
		// its fan-out will make this node re-check and re-report, so the
		// report is safe to shed.
		select {
		case c.violCh <- msg:
		default:
			c.shedViolations.Inc()
		}
	case *core.Rejoin:
		// A duplicated registration frame (the rejoin that opened this
		// connection, delivered twice by a faulty link); already handled.
	default:
		// Anything else means the stream is corrupt; recycle the
		// connection and let the node rejoin.
		cc.conn.Close()
	}
}

// socketComm implements core.NodeComm over the registered connections. It is
// only invoked while c.mu is held (Init, HandleViolation, HandleDeparture,
// HandleRejoin), so the request/response pairing is race-free and calling
// MarkDead on the core coordinator is safe.
type socketComm struct {
	c *Coordinator
}

// lookup fetches the current connection for a node, or nil if it is gone.
func (s *socketComm) lookup(id int) *coordConn {
	s.c.connsMu.Lock()
	cc := s.c.conns[id]
	s.c.connsMu.Unlock()
	if cc == nil || cc.isGone() {
		return nil
	}
	return cc
}

// noteDead records a mid-resolution node loss. Caller holds c.mu.
func (s *socketComm) noteDead(id int) {
	if s.c.coord != nil {
		s.c.coord.MarkDead(id)
	}
}

func (s *socketComm) RequestData(id int) []float64 {
	cc := s.lookup(id)
	if cc == nil {
		s.noteDead(id)
		return nil
	}
	// Requests are strictly sequenced (the caller holds c.mu); drain any
	// stale or duplicated response so the next arrival answers this request.
	for {
		select {
		case <-cc.dataCh:
			continue
		default:
		}
		break
	}
	// Urgent: the round trip blocks the resolution, so the request (and any
	// syncs buffered before it — order is preserved) must leave now.
	if err := cc.w.writeMsg(&core.DataRequest{NodeID: id}, true); err != nil {
		cc.conn.Close()
		s.noteDead(id)
		return nil
	}
	// Stopped on return: an abandoned time.After stays in the runtime's timer
	// heap for the whole RequestTimeout, so the heap would grow with every pull.
	timeout := time.NewTimer(s.c.opts.RequestTimeout)
	defer timeout.Stop()
	select {
	case resp := <-cc.dataCh:
		return resp.X
	case <-cc.gone:
		s.noteDead(id)
		return nil
	case <-s.c.done:
		return nil
	case <-timeout.C:
		// A node that cannot answer a data request is useless even if its
		// TCP connection looks healthy: recycle the connection so the node
		// notices, reconnects, and rejoins with fresh state.
		s.c.deadlineHits.Inc()
		s.c.tracer.Record(obs.EventDeadlineHit, id, s.c.opts.RequestTimeout.Seconds(), "data-request")
		cc.conn.Close()
		s.noteDead(id)
		return nil
	}
}

func (s *socketComm) SendSync(id int, m *core.Sync) {
	s.send(id, m)
}

func (s *socketComm) SendSlack(id int, m *core.Slack) {
	s.send(id, m)
}

// send delivers a sync or slack message. These are flow messages a node
// waits on only until the resolution wave ends, so they are batchable: the
// dispatch barrier (or MaxBytes/MaxDelay) flushes them.
func (s *socketComm) send(id int, m core.Message) {
	cc := s.lookup(id)
	if cc == nil {
		s.noteDead(id)
		return
	}
	if err := cc.w.writeMsg(m, false); err != nil {
		cc.conn.Close()
		s.noteDead(id)
	}
}
