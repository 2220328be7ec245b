package transport

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"automon/internal/core"
	"automon/internal/obs"
)

// MultiCoordinator hosts many independent monitoring groups — one monitored
// function and node roster each — behind a single listener, sharing one
// accept loop, one bounded registration pool and one obs registry. Frames
// are routed to their group's Coordinator by the GroupID every frame
// carries. Groups are isolated: a hostile or crashing tenant is rejected
// (and counted) without disturbing the others, and Coordinator.Close on one
// group leaves the rest serving.
type MultiCoordinator struct {
	ln   net.Listener
	opts Options
	// Stats counts traffic not yet attributable to a group — the
	// registration read of each fresh connection. Per-group traffic lands
	// on each group Coordinator's own Stats. Under ListenCoordinator the
	// two are the same instance, preserving single-tenant accounting.
	Stats TrafficStats

	stats         *TrafficStats // effective registration-stats target
	tracer        *obs.Tracer
	rejectedConns *obs.Counter // connections refused at registration
	regSem        chan struct{}

	// single marks a ListenCoordinator-owned server: exactly group 0 (no
	// AddGroup), label-less metric names, the group's Stats aliased as the
	// endpoint's, and the group's Close owning the listener.
	single bool

	groupsMu sync.RWMutex
	groups   map[GroupID]*Coordinator

	pendingMu sync.Mutex
	pending   map[net.Conn]struct{}

	done   chan struct{}
	err    atomic.Value
	closed atomic.Bool
	wg     sync.WaitGroup
}

// ListenMulti starts an empty multi-tenant coordinator endpoint on addr.
// Add groups with AddGroup; nodes dial the shared address with their group
// set in Options.Group. A node registering for a group that does not exist
// (yet) is rejected and will retry through its reconnect loop.
func ListenMulti(addr string, opts Options) (*MultiCoordinator, error) {
	opts.defaults()
	mc, err := newMulti(addr, opts, false)
	if err != nil {
		return nil, err
	}
	mc.stats = &mc.Stats
	mc.Stats.Bind(opts.Metrics, `side="coordinator",group="pending"`, opts.Tracer, -1)
	mc.start()
	return mc, nil
}

// newMulti builds the shared endpoint without starting its accept loop, so
// callers can finish wiring (stats targets, the initial group) first.
func newMulti(addr string, opts Options, single bool) (*MultiCoordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mc := &MultiCoordinator{
		ln:      ln,
		opts:    opts,
		tracer:  opts.Tracer,
		regSem:  make(chan struct{}, registerWorkers),
		single:  single,
		groups:  make(map[GroupID]*Coordinator),
		pending: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	mc.rejectedConns = opts.Metrics.Counter("automon_transport_rejected_registrations_total",
		"Connections refused at registration: unknown group, bad node id, wrong dimension, or malformed handshake.")
	return mc, nil
}

// start launches the accept loop.
func (mc *MultiCoordinator) start() {
	mc.wg.Add(1)
	go mc.acceptLoop()
}

// Addr returns the shared listen address.
func (mc *MultiCoordinator) Addr() string { return mc.ln.Addr().String() }

// Err returns the first endpoint-level fatal error: a listener failure. No
// peer's bytes can set it.
func (mc *MultiCoordinator) Err() error {
	if e := mc.err.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// RejectedRegistrations returns how many connections were refused at
// registration (unknown group, bad node id, wrong dimension, or malformed
// handshake).
func (mc *MultiCoordinator) RejectedRegistrations() int64 { return mc.rejectedConns.Load() }

// AddGroup registers a new monitoring group gid for n nodes over function
// f and returns its Coordinator handle. The group's core config inherits
// the endpoint's registry and tracer, gets a per-group label on its metric
// series, and — once all n of its nodes register — runs its initial full
// sync independently of every other group.
func (mc *MultiCoordinator) AddGroup(gid GroupID, f *core.Function, n int, cfg core.Config) (*Coordinator, error) {
	if mc.single {
		return nil, errors.New("transport: cannot add groups to a single-group coordinator")
	}
	if mc.closed.Load() {
		return nil, errors.New("transport: endpoint closed")
	}
	c, err := mc.addGroup(gid, f, n, cfg)
	if err != nil {
		return nil, err
	}
	c.Stats.Bind(mc.opts.Metrics, fmt.Sprintf(`side="coordinator",group="%d"`, gid), mc.opts.Tracer, -1)
	return c, nil
}

// addGroup creates and registers the group engine. The caller binds Stats
// (label sets differ between single- and multi-tenant modes).
func (mc *MultiCoordinator) addGroup(gid GroupID, f *core.Function, n int, cfg core.Config) (*Coordinator, error) {
	if gid >= MaxGroups {
		return nil, fmt.Errorf("transport: group id %d out of range [0, %d)", gid, MaxGroups)
	}
	if n <= 0 {
		return nil, fmt.Errorf("transport: group %d needs at least one node", gid)
	}
	// The core coordinator inherits the endpoint's registry and tracer
	// unless the caller wired its own into the core config.
	if cfg.Metrics == nil {
		cfg.Metrics = mc.opts.Metrics
	}
	if cfg.Tracer == nil {
		cfg.Tracer = mc.opts.Tracer
	}
	lbl := ""
	if !mc.single {
		lbl = fmt.Sprintf(`{group="%d"}`, gid)
		if cfg.MetricsLabels == "" {
			cfg.MetricsLabels = fmt.Sprintf(`group="%d"`, gid)
		}
	}
	c := &Coordinator{
		srv:     mc,
		gid:     gid,
		f:       f,
		n:       n,
		cfg:     cfg,
		opts:    mc.opts,
		conns:   make([]*coordConn, n),
		joins:   make([][]float64, n),
		reports: make([]core.Violation, n),
		ready:   make(chan struct{}),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	c.tracer = mc.opts.Tracer
	c.deadlineHits = mc.opts.Metrics.Counter("automon_transport_request_timeouts_total"+lbl,
		"Data-request round trips that exceeded RequestTimeout (node recycled).")

	mc.groupsMu.Lock()
	if _, dup := mc.groups[gid]; dup {
		mc.groupsMu.Unlock()
		return nil, fmt.Errorf("transport: group %d already exists", gid)
	}
	mc.groups[gid] = c
	mc.groupsMu.Unlock()

	c.wg.Add(1)
	go c.dispatch()
	return c, nil
}

// Group returns the Coordinator for gid, or nil.
func (mc *MultiCoordinator) Group(gid GroupID) *Coordinator {
	mc.groupsMu.RLock()
	defer mc.groupsMu.RUnlock()
	return mc.groups[gid]
}

// Close stops the listener, every pending registration, and every group.
// Groups close in ascending GroupID order so shutdown traces and metric
// final states are reproducible run to run.
func (mc *MultiCoordinator) Close() {
	if !mc.closed.CompareAndSwap(false, true) {
		return
	}
	mc.ln.Close()
	mc.pendingMu.Lock()
	conns := make([]net.Conn, 0, len(mc.pending))
	for conn := range mc.pending {
		conns = append(conns, conn)
	}
	mc.pendingMu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	close(mc.done)
	mc.groupsMu.RLock()
	gids := make([]GroupID, 0, len(mc.groups))
	for gid := range mc.groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	groups := make([]*Coordinator, 0, len(gids))
	for _, gid := range gids {
		groups = append(groups, mc.groups[gid])
	}
	mc.groupsMu.RUnlock()
	for _, g := range groups {
		g.closeGroup()
	}
	mc.wg.Wait()
}

func (mc *MultiCoordinator) acceptLoop() {
	defer mc.wg.Done()
	for {
		conn, err := mc.ln.Accept()
		if err != nil {
			if !mc.closed.Load() {
				mc.err.Store(err) // the only write: the loop ends here
			}
			return
		}
		mc.pendingMu.Lock()
		mc.pending[conn] = struct{}{}
		mc.pendingMu.Unlock()
		mc.wg.Add(1)
		go mc.handleNewConn(conn)
	}
}

// reject closes a connection refused at registration. It costs the peer that
// one connection and nothing else: a confused or malicious client cannot take
// the endpoint, or any group on it, down.
func (mc *MultiCoordinator) reject(conn net.Conn) {
	conn.Close()
	mc.rejectedConns.Inc()
}

// handleNewConn reads the first frame of a fresh connection — through the
// bounded registration pool — and routes it to its group: a DataResponse
// registers a node for the first time, a Rejoin re-registers one after a
// connection loss. I/O errors here are survivable churn (the node will
// retry); a peer that delivers a well-formed but wrong registration, or
// frames that cannot be parsed at all, is rejected.
func (mc *MultiCoordinator) handleNewConn(conn net.Conn) {
	defer mc.wg.Done()
	//automon:allow determinism registration backpressure races shutdown by design; either arm ends with the connection registered once or closed, never a protocol value
	select {
	case mc.regSem <- struct{}{}:
	case <-mc.done:
		conn.Close()
		return
	}
	defer func() { <-mc.regSem }()

	// The reader that takes the registration serves the connection after it.
	rd := new(frameReader)
	fb, err := rd.readConn(conn, mc.opts.RegisterTimeout, mc.stats)
	mc.pendingMu.Lock()
	delete(mc.pending, conn)
	mc.pendingMu.Unlock()
	if err != nil {
		conn.Close()
		if !mc.closed.Load() && errors.Is(err, errMalformedFrame) {
			mc.rejectedConns.Inc()
		}
		return
	}
	g := mc.Group(fb.group)
	if g == nil || g.closed.Load() {
		mc.reject(conn) // unknown group
		return
	}
	var id int
	var x []float64
	switch reg := fb.msgs[0].(type) {
	case *core.DataResponse:
		id, x = reg.NodeID, reg.X
	case *core.Rejoin:
		id, x = reg.NodeID, reg.X
	default:
		mc.reject(conn) // wrong message type
		return
	}
	if id < 0 || id >= g.n {
		mc.reject(conn) // node id outside the roster
		return
	}
	if len(fb.msgs) != 1 {
		mc.reject(conn) // a registration travels alone: node sends never coalesce
		return
	}
	if len(x) != g.f.Dim() {
		mc.reject(conn) // a vector of another dimension
		return
	}
	g.register(id, conn, rd, x)
}
