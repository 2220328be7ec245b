package transport

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"automon/internal/core"
	"automon/internal/obs"
)

// NodeClient runs one AutoMon node over a TCP connection to the coordinator.
// The application feeds local-vector updates through Update; the client
// transparently answers the coordinator's data requests, installs safe
// zones, and reports violations (blocking until the coordinator resolves
// them, matching the §3.7 assumption that data arrives slower than
// resolutions complete).
//
// Connection losses are survivable: the client reconnects with exponentially
// backed-off, jittered retries, re-registers through a Rejoin message, and
// receives a fresh full-sync state from the coordinator. Only exhausting
// MaxReconnectAttempts (or Close) ends the client; Err then reports the
// cause and WaitReady/Update unblock immediately.
type NodeClient struct {
	ID    int
	Stats TrafficStats

	addr string
	opts Options

	stateMu sync.Mutex // guards conn, w, err, closed
	conn    net.Conn
	w       *frameWriter
	err     error
	closed  bool

	mu       sync.Mutex // guards node, reported, elided, reply and resolveTimer
	node     *core.Node
	reported bool // a violation is outstanding; suppress duplicates
	// elided counts UpdateElided calls whose exact check the budget skipped.
	elided int64
	// reply is the pull reply, encoded straight from the node's vector.
	reply core.DataResponse
	// resolveTimer is update's ResolveTimeout timer, parked here between
	// waits; a concurrent update that finds it taken makes its own.
	resolveTimer *time.Timer
	resolved     chan struct{}
	ready        chan struct{}
	readyOne     sync.Once

	failed     chan struct{} // closed on permanent failure
	failedOnce sync.Once
	closeCh    chan struct{}
	closeOnce  sync.Once

	reconnects     *obs.Counter   // successful rejoins after a connection loss
	reconnectTries *obs.Counter   // dial attempts made by the reconnect loop
	rejectedSyncs  *obs.Counter   // syncs and slacks the node refused (see core.Node.ApplySync)
	backoffWait    *obs.Histogram // jittered backoff sleeps, in seconds
	tracer         *obs.Tracer

	rng *rand.Rand // backoff jitter; used only by the run goroutine
	// refusals counts refused syncs since the last installed one (run
	// goroutine only). Each costs a reconnect, so a node that can check
	// nothing the coordinator sends (a function mismatch) spends its reconnect
	// budget instead of cycling forever.
	refusals int
	wg       sync.WaitGroup
}

// DialNode connects to the coordinator, registers node id with its initial
// local vector, and starts serving coordinator messages. Every frame carries
// Options.Group.
func DialNode(addr string, id int, f *core.Function, initial []float64, opts Options) (*NodeClient, error) {
	opts.defaults()
	conn, err := opts.Dial("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &NodeClient{
		ID:       id,
		addr:     addr,
		conn:     conn,
		opts:     opts,
		node:     core.NewNode(id, f),
		resolved: make(chan struct{}, 1),
		ready:    make(chan struct{}),
		failed:   make(chan struct{}),
		closeCh:  make(chan struct{}),
		rng:      rand.New(rand.NewSource(int64(id) + 1)),
	}
	c.w = newFrameWriter(conn, opts.Group, opts, &c.Stats)
	nodeLabel := fmt.Sprintf(`node="%d"`, id)
	if opts.Group != 0 {
		nodeLabel = fmt.Sprintf(`node="%d",group="%d"`, id, opts.Group)
	}
	c.Stats.Bind(opts.Metrics, `side="node",`+nodeLabel, opts.Tracer, id)
	c.tracer = opts.Tracer
	c.reconnects = opts.Metrics.Counter(
		fmt.Sprintf("automon_transport_reconnects_total{%s}", nodeLabel),
		"Successful rejoins after a connection loss.")
	c.reconnectTries = opts.Metrics.Counter(
		fmt.Sprintf("automon_transport_reconnect_attempts_total{%s}", nodeLabel),
		"Dial attempts made by the reconnect loop.")
	c.rejectedSyncs = opts.Metrics.Counter(
		fmt.Sprintf("automon_transport_rejected_syncs_total{%s}", nodeLabel),
		"Syncs and slacks refused as uncheckable (wrong length, malformed or missing ADCD-E factor); the connection was recycled to force a re-send.")
	c.backoffWait = opts.Metrics.Histogram(
		fmt.Sprintf("automon_transport_backoff_seconds{%s}", nodeLabel),
		"Jittered reconnect backoff sleeps.",
		[]float64{0.025, 0.05, 0.1, 0.25, 0.5, 1, 2, 5})
	c.node.SetData(initial)
	if err := c.w.writeMsg(&core.DataResponse{NodeID: id, X: initial}, true); err != nil {
		conn.Close()
		return nil, err
	}
	c.wg.Add(1)
	go c.run()
	return c, nil
}

// run owns the connection lifecycle: serve the current connection until it
// dies, then reconnect and rejoin, until Close or the retry budget runs out.
func (c *NodeClient) run() {
	defer c.wg.Done()
	for {
		cause := c.serve()
		if c.isClosed() {
			return
		}
		if err := c.reconnect(cause); err != nil {
			c.fail(err)
			return
		}
	}
}

// currentConn snapshots the active connection (nil after Close).
func (c *NodeClient) currentConn() net.Conn {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.conn
}

// currentWriter snapshots the active connection's frame writer (nil after
// Close).
func (c *NodeClient) currentWriter() *frameWriter {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.w
}

// setConn installs a fresh connection and its writer; returns false if the
// client was closed while dialing (the connection is then discarded).
func (c *NodeClient) setConn(conn net.Conn, w *frameWriter) bool {
	c.stateMu.Lock()
	if c.closed {
		c.stateMu.Unlock()
		conn.Close()
		return false
	}
	c.conn = conn
	c.w = w
	c.stateMu.Unlock()
	return true
}

func (c *NodeClient) isClosed() bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.closed
}

// serve reads coordinator messages on the current connection until it dies.
// Each message is handled before the next read, which reuses its structs.
func (c *NodeClient) serve() error {
	conn := c.currentConn()
	if conn == nil {
		return errNotConnected
	}
	rd := new(frameReader)
	for {
		fb, err := rd.readConn(conn, 0, &c.Stats)
		if err != nil {
			conn.Close()
			return err
		}
		if fb.group != c.opts.Group {
			// A frame for another group on this connection means the stream
			// is misrouted; recycle the connection rather than dying.
			conn.Close()
			return fmt.Errorf("transport: node %d received frame for group %d", c.ID, fb.group)
		}
		for _, m := range fb.msgs {
			if err := c.handleMsg(conn, m); err != nil {
				return err
			}
		}
	}
}

// handleMsg processes one coordinator message.
func (c *NodeClient) handleMsg(conn net.Conn, m core.Message) error {
	switch msg := m.(type) {
	case *core.DataRequest:
		w := c.currentWriter()
		if w == nil {
			break // closed: nobody is waiting for the reply
		}
		c.mu.Lock()
		c.node.Respond(&c.reply)
		// Re-installing the vector invalidates the elision budget, so the
		// update after a pull runs the exact check, as it always has here.
		// Soundness does not need it (core.Node.UpdateElided). It stays
		// because bench/drive.go samples every update that sends any message
		// as a resolution, so this check, run while the reply is still being
		// written, is sampled too: without it quiet-sock resolve_p50_ms reads
		// 9–26 % higher at unchanged real latency (EXPERIMENTS.md, "One wire,
		// one registration posture, one elided node step").
		// It goes once drive.go samples only updates that send a Violation.
		c.node.SetData(c.reply.X)
		// Encoded under c.mu, from the vector it guards; written outside it,
		// so a slow write never holds up Update.
		err := w.hold(&c.reply)
		c.mu.Unlock()
		// A failed reply closes the connection; the frame read loop will
		// surface it on the next iteration.
		if err == nil {
			// Best-effort send: a failed frame is recovered by the reconnect/full-sync path, not the caller
			_ = w.flush()
		}
	case *core.Sync:
		c.mu.Lock()
		ok := c.node.ApplySync(msg)
		c.reported = false // this resolution consumes the outstanding report
		c.mu.Unlock()
		if !ok {
			c.refusals++
			// The coordinator already believes this zone installed (and an
			// ADCD-E factor delivered), so no later sync can heal the node:
			// recycle the connection, and the Rejoin makes the coordinator
			// forget what it sent and run a full sync with the factor.
			c.rejectedSyncs.Inc()
			conn.Close()
			return fmt.Errorf("transport: node %d refused an uncheckable sync", c.ID)
		}
		c.refusals = 0
		c.readyOne.Do(func() { close(c.ready) })
		c.recheck()
		c.signalResolved()
	case *core.Slack:
		c.mu.Lock()
		ok := c.node.ApplySlack(msg)
		c.reported = false
		c.mu.Unlock()
		if !ok {
			// Refused like an uncheckable sync: the coordinator believes the
			// slack installed, so only the Rejoin's full sync restores the
			// partition's zero-sum slack.
			c.refusals++
			c.rejectedSyncs.Inc()
			conn.Close()
			return fmt.Errorf("transport: node %d refused a slack of %d entries", c.ID, len(msg.Slack))
		}
		c.recheck()
		c.signalResolved()
	default:
		// A corrupt or misrouted stream; recycle the connection rather
		// than dying — the rejoin full sync re-establishes a clean state.
		conn.Close()
		return fmt.Errorf("transport: node %d received unexpected %v", c.ID, m.Type())
	}
	return nil
}

// reconnect re-establishes the coordinator connection with exponential
// backoff and jitter, re-registering through a Rejoin carrying the current
// local vector. cause is the connection error that triggered it.
func (c *NodeClient) reconnect(cause error) error {
	if c.opts.MaxReconnectAttempts < 0 || c.refusals > c.opts.MaxReconnectAttempts {
		return cause
	}
	backoff := c.opts.ReconnectBase
	for attempt := 1; attempt <= c.opts.MaxReconnectAttempts; attempt++ {
		// Jitter uniformly over [backoff/2, backoff] so a herd of nodes
		// killed by the same fault does not reconnect in lockstep.
		d := backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
		c.backoffWait.Observe(d.Seconds())
		// Stopped when Close wins so no timer outlives the wait (see
		// socketComm.RequestData).
		wait := time.NewTimer(d)
		select {
		case <-c.closeCh:
			wait.Stop()
			return cause
		case <-wait.C:
		}
		c.reconnectTries.Inc()
		c.tracer.Record(obs.EventReconnectTry, c.ID, float64(attempt), "")
		conn, err := c.opts.Dial("tcp", c.addr, c.opts.DialTimeout)
		if err == nil {
			c.mu.Lock()
			// A copy: the node's own vector is lent only while c.mu is held.
			x := slices.Clone(c.node.LocalVector())
			// Any outstanding report died with the old connection; the
			// rejoin full sync re-evaluates the constraints from scratch.
			c.reported = false
			c.mu.Unlock()
			w := newFrameWriter(conn, c.opts.Group, c.opts, &c.Stats)
			err = w.writeMsg(&core.Rejoin{NodeID: c.ID, X: x}, true)
			if err == nil {
				if !c.setConn(conn, w) {
					return cause
				}
				c.reconnects.Inc()
				c.tracer.Record(obs.EventReconnected, c.ID, float64(attempt), "")
				return nil
			}
			conn.Close()
		}
		backoff = min(2*backoff, reconnectMax)
	}
	c.tracer.Record(obs.EventReconnectFailed, c.ID, float64(c.opts.MaxReconnectAttempts), "")
	return fmt.Errorf("transport: node %d gave up after %d reconnect attempts: %w",
		c.ID, c.opts.MaxReconnectAttempts, cause)
}

// Reconnects returns how many times the client has successfully rejoined
// after a connection loss.
func (c *NodeClient) Reconnects() int64 { return c.reconnects.Load() }

// recheck re-evaluates the local constraints right after a new zone or
// slack is installed and reports a fresh violation if they no longer hold.
// This covers a race the paper's data-rate assumption (§3.7) rules out:
// when data keeps flowing during a resolution, the coordinator may have
// balanced against a slightly stale local vector, leaving this node outside
// its zone with no pending data update to notice it.
// At most one violation report is outstanding at a time: duplicates for the
// same out-of-zone state would multiply through the resolution fan-out and
// flood the coordinator.
func (c *NodeClient) recheck() {
	c.mu.Lock()
	if c.reported {
		c.mu.Unlock()
		return
	}
	var w *frameWriter
	if v := c.node.Check(); v != nil {
		c.reported = true
		w = c.holdLocked(v)
	}
	c.mu.Unlock()
	if w == nil {
		return
	}
	// A send failure recycles the connection; the rejoin sync re-triggers
	// this check, so the report is not lost for good.
	// Best-effort send: a failed frame is recovered by the reconnect/full-sync path, not the caller
	_ = w.flush()
}

// holdLocked encodes the node's lent violation into the current connection's
// pending frame and returns the writer to flush once c.mu is released, or nil
// when there is nothing to flush (closed, or the writer already failed). The
// violation is valid only under c.mu, which the caller holds: the next check
// rewrites it. The flush follows at once — the coordinator is waiting on the
// report — and a failed one has closed the connection, so the run loop
// recycles it; the report itself is not retried, the post-rejoin full sync
// restores consistency.
func (c *NodeClient) holdLocked(v *core.Violation) *frameWriter {
	w := c.currentWriter()
	if w == nil || w.hold(v) != nil {
		return nil
	}
	return w
}

func (c *NodeClient) signalResolved() {
	select {
	case c.resolved <- struct{}{}:
	default:
	}
}

// fail records a permanent failure (reconnection exhausted or disabled).
func (c *NodeClient) fail(err error) {
	c.stateMu.Lock()
	if c.err == nil && !c.closed {
		c.err = err
	}
	c.stateMu.Unlock()
	c.failedOnce.Do(func() { close(c.failed) })
	c.signalResolved() // unblock any waiting Update
}

// WaitReady blocks until the node has installed its first safe zone (the
// initial full sync reached it), the client permanently fails, or the
// timeout expires. Call it after the coordinator reports Ready before
// streaming updates: until the first Sync arrives the node is silent by
// design, so updates pushed earlier are not monitored.
func (c *NodeClient) WaitReady(timeout time.Duration) error {
	// A failure that precedes readiness must surface immediately, not after
	// the full timeout.
	select {
	case <-c.failed:
		return fmt.Errorf("transport: node %d failed before its first sync: %w", c.ID, c.Err())
	default:
	}
	// Stopped on return: automon-node waits up to five minutes here, and an
	// abandoned time.After would outlive readiness by that long.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	//automon:allow determinism wait-for-any by design: the race only selects which error (or nil) surfaces, no protocol value depends on the winning arm
	select {
	case <-c.ready:
		return nil
	case <-c.failed:
		return fmt.Errorf("transport: node %d failed before its first sync: %w", c.ID, c.Err())
	case <-deadline.C:
		return fmt.Errorf("transport: node %d never received its first sync", c.ID)
	}
}

// Err returns the permanent failure, if any. Transient connection losses
// that the reconnect loop absorbed do not count.
func (c *NodeClient) Err() error {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.err
}

// EnableElision turns on safe-zone check elision for this client: UpdateElided
// then skips the exact constraint check (and its traffic) while the node's
// distance-to-boundary budget proves the vector still inside the safe zone.
// Reports false — leaving the client on the per-update path — when the
// function carries no curvature bound.
func (c *NodeClient) EnableElision() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node.EnableElision()
}

// Update installs a new local vector, checks the local constraints, and —
// if they are violated — reports to the coordinator and blocks until the
// violation is resolved (new slack or safe zone installed). A connection
// loss during the wait is absorbed: the rejoin full sync resolves the
// violation like any other sync.
func (c *NodeClient) Update(x []float64) error {
	return c.update(x, false)
}

// UpdateElided is Update on the elided fast path: it spends the vector's
// displacement from the last checked point from the elision budget and runs
// the full check (with identical protocol behavior to Update) only when the
// budget no longer proves the move safe. Requires a successful
// EnableElision.
func (c *NodeClient) UpdateElided(x []float64) error {
	return c.update(x, true)
}

// update is the shared implementation behind Update and UpdateElided.
func (c *NodeClient) update(x []float64, elide bool) error {
	c.mu.Lock()
	if elide && !c.node.ElisionEnabled() {
		c.mu.Unlock()
		return fmt.Errorf("transport: node %d: UpdateElided without EnableElision", c.ID)
	}
	var v *core.Violation
	if elide {
		var skipped bool
		if v, skipped = c.node.UpdateElided(x); skipped {
			c.elided++ // proven inside the safe zone: no exact check, no traffic
		}
	} else {
		v = c.node.UpdateDataRefresh(x)
	}
	var w *frameWriter
	if v != nil && !c.reported {
		c.reported = true
		w = c.holdLocked(v)
	}
	var deadline *time.Timer
	if v != nil {
		// Drain a stale resolution signal so the wait below takes a fresh
		// one. Every sync it stood for was installed before this check
		// (installs take c.mu), so the check above already saw it.
		select {
		case <-c.resolved:
		default:
		}
		deadline, c.resolveTimer = c.resolveTimer, nil
	}
	c.mu.Unlock()
	if v == nil {
		return c.Err()
	}
	if w != nil {
		// A failed report is not fatal: the connection recycles, the rejoin
		// full sync re-checks the constraints, and the wait below completes.
		// Best-effort send: a failed frame is recovered by the reconnect/full-sync path, not the caller
		_ = w.flush()
	}
	// Resolution signals are not addressed to a specific violation (a sync
	// triggered by another node's violation also lands here), so wait until
	// this node's constraints actually hold again.
	// Stopped on return so no timer outlives the wait (see
	// socketComm.RequestData), then parked for the next wait.
	deadline = armTimer(deadline, c.opts.ResolveTimeout)
	defer func() {
		deadline.Stop()
		c.mu.Lock()
		c.resolveTimer = deadline
		c.mu.Unlock()
	}()
	for {
		select {
		case <-c.resolved:
		case <-deadline.C:
			return fmt.Errorf("transport: node %d violation resolution timed out", c.ID)
		}
		if err := c.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		still := c.node.Check()
		c.mu.Unlock()
		if still == nil {
			return nil
		}
	}
}

// ElidedUpdates returns how many UpdateElided calls skipped their exact
// check because the elision budget proved the move safe.
func (c *NodeClient) ElidedUpdates() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elided
}

// CurrentValue returns the node's current estimate f(x0).
func (c *NodeClient) CurrentValue() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node.CurrentValue()
}

// Close tears down the connection and stops the reconnect loop.
func (c *NodeClient) Close() {
	c.stateMu.Lock()
	c.closed = true
	conn := c.conn
	c.stateMu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
}
