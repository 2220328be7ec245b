package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"automon/internal/core"
)

// SubtreeHandler is the parent tier's view of a shard uplink: validated
// partial-aggregate frames and whole-sub-tree rejoins. shard.Tree implements
// it; tests may substitute recorders. AcceptPartial's verdict is the
// handler's — the link delivers every structurally valid frame and lets the
// protocol tier decide (stale epochs and count lies are protocol rejections,
// not transport errors). The listener never calls a handler from two
// goroutines at once, so a single-threaded tree can serve every uplink.
type SubtreeHandler interface {
	AcceptPartial(p *core.Partial) bool
	HandleSubtreeRejoinMsg(m *core.SubtreeRejoin) error
}

// SubtreeListener is the parent side of shard-to-parent links: it accepts
// uplink connections from sub-coordinators and routes their Partial and
// SubtreeRejoin frames (over the same framing every other peer speaks) into
// a SubtreeHandler. A malformed frame kills only its own connection —
// the sub-coordinator redials and re-registers its whole partition with a
// SubtreeRejoin, the shard-tier analogue of a node's single-vector Rejoin.
type SubtreeListener struct {
	ln net.Listener
	h  SubtreeHandler
	// Stats counts the uplink traffic of this listener across all shard
	// connections.
	Stats TrafficStats

	// hmu is held across every handler call, so the per-uplink goroutines
	// enter the handler one at a time: a shard.Tree is single-threaded.
	hmu    sync.Mutex
	mu     sync.Mutex
	err    error // first handler or protocol error, for tests to inspect
	done   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// ListenSubtreeParent starts a parent-tier uplink listener on addr.
func ListenSubtreeParent(addr string, h SubtreeHandler, opts Options) (*SubtreeListener, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: subtree listener needs a handler")
	}
	opts.defaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &SubtreeListener{ln: ln, h: h, done: make(chan struct{})}
	l.Stats.Bind(opts.Metrics, `side="subtree-parent"`, opts.Tracer, -1)
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener's bound address.
func (l *SubtreeListener) Addr() string { return l.ln.Addr().String() }

// Err returns the first protocol or handler error any uplink produced (nil
// while all frames were clean). Connection-level errors do not stop the
// listener: surviving links keep flowing.
func (l *SubtreeListener) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close stops accepting and tears down every uplink.
func (l *SubtreeListener) Close() {
	l.closed.Do(func() {
		close(l.done)
		l.ln.Close()
	})
	l.wg.Wait()
}

func (l *SubtreeListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.done:
			default:
				l.note(err)
			}
			return
		}
		l.wg.Add(1)
		go l.serveUplink(conn)
	}
}

// serveUplink drains one sub-coordinator's frames until the connection dies.
// Frame decoding already enforces the structural invariants (length bounds,
// accumulator windows, ascending rejoin IDs); what reaches the handler is
// well-formed, and the handler applies the protocol-level checks (epoch,
// weight bounds, partition membership).
func (l *SubtreeListener) serveUplink(conn net.Conn) {
	defer l.wg.Done()
	defer conn.Close()
	go func() {
		<-l.done
		conn.Close()
	}()
	for {
		fr, err := readAnyFrame(conn, 0, &l.Stats)
		if err != nil {
			if errors.Is(err, errMalformedFrame) {
				l.note(err)
			}
			return
		}
		for _, m := range fr.msgs {
			switch msg := m.(type) {
			case *core.Partial:
				l.hmu.Lock()
				l.h.AcceptPartial(msg)
				l.hmu.Unlock()
			case *core.SubtreeRejoin:
				l.hmu.Lock()
				err := l.h.HandleSubtreeRejoinMsg(msg)
				l.hmu.Unlock()
				if err != nil {
					l.note(err)
				}
			default:
				l.note(fmt.Errorf("%w: %s frame on a subtree uplink", errMalformedFrame, m.Type()))
				return
			}
		}
	}
}

func (l *SubtreeListener) note(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// SubtreeUplink is the child side of a shard-to-parent link: a
// sub-coordinator streams its partial aggregates upward and, after a
// partition heals, re-registers its whole sub-tree in one frame. The uplink
// always speaks wire v2, so enabling Options.Batch coalesces partials into
// shared frames exactly as node traffic coalesces.
type SubtreeUplink struct {
	conn net.Conn
	w    *frameWriter
	// Stats counts this uplink's outbound traffic.
	Stats TrafficStats
}

// DialSubtreeParent connects a sub-coordinator to its parent tier.
func DialSubtreeParent(addr string, opts Options) (*SubtreeUplink, error) {
	opts.defaults()
	conn, err := opts.Dial("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	u := &SubtreeUplink{conn: conn}
	u.Stats.Bind(opts.Metrics, `side="subtree-child"`, opts.Tracer, -1)
	u.w = newFrameWriter(conn, opts.Group, opts, &u.Stats)
	return u, nil
}

// SendPartial ships one partial-aggregate frame upward. Partials are what
// the parent's current gather is waiting on, so they flush any batch
// immediately (urgent), carrying earlier buffered frames with them in order.
func (u *SubtreeUplink) SendPartial(p *core.Partial) error {
	return u.w.writeMsg(p, true)
}

// SendSubtreeRejoin re-registers the whole sub-tree after a partition heals.
func (u *SubtreeUplink) SendSubtreeRejoin(m *core.SubtreeRejoin) error {
	return u.w.writeMsg(m, true)
}

// Flush drains any batched frames without sending new ones.
func (u *SubtreeUplink) Flush() error { return u.w.flush() }

// Close tears the uplink down. The parent treats it as a lost sub-tree until
// a new uplink re-registers the partition.
func (u *SubtreeUplink) Close() { u.conn.Close() }
