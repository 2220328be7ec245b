package transport

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/shard"
)

// recordingHandler captures what the listener routes out of the uplink.
type recordingHandler struct {
	mu       sync.Mutex
	partials []*core.Partial
	rejoins  []*core.SubtreeRejoin
}

func (h *recordingHandler) AcceptPartial(p *core.Partial) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.partials = append(h.partials, p)
	return true
}

func (h *recordingHandler) HandleSubtreeRejoinMsg(m *core.SubtreeRejoin) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rejoins = append(h.rejoins, m)
	return nil
}

func (h *recordingHandler) counts() (int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.partials), len(h.rejoins)
}

// TestSubtreeLinkEndToEnd pushes partial-aggregate and sub-tree-rejoin
// frames through a real TCP uplink and checks they arrive intact and are
// counted on both sides.
func TestSubtreeLinkEndToEnd(t *testing.T) {
	h := &recordingHandler{}
	l, err := ListenSubtreeParent("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	u, err := DialSubtreeParent(l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	accs := make([]linalg.Acc, 2)
	linalg.AddVec(accs, []float64{0.25, 0.75})
	for i := 0; i < 3; i++ {
		if err := u.SendPartial(&core.Partial{ShardID: i, NodeID: -1, Epoch: 7, Weight: 2,
			Accs: append([]linalg.Acc(nil), accs...)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.SendSubtreeRejoin(&core.SubtreeRejoin{ShardID: 1, IDs: []int{2, 3},
		Xs: [][]float64{{0.1, 0.9}, {0.2, 0.8}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "frames to arrive", func() bool { p, r := h.counts(); return p == 3 && r == 1 })
	if err := l.Err(); err != nil {
		t.Fatalf("clean uplink latched an error: %v", err)
	}
	h.mu.Lock()
	got := h.partials[2]
	rj := h.rejoins[0]
	h.mu.Unlock()
	if got.ShardID != 2 || got.Epoch != 7 || got.Weight != 2 || got.Accs[1].Round() != 0.75 {
		t.Fatalf("partial arrived mangled: %+v", got)
	}
	if rj.ShardID != 1 || len(rj.IDs) != 2 || rj.Xs[1][0] != 0.2 {
		t.Fatalf("rejoin arrived mangled: %+v", rj)
	}
	if l.Stats.MessagesReceived.Load() != 4 || u.Stats.MessagesSent.Load() != 4 {
		t.Fatalf("traffic counts wrong: parent rx %d, child tx %d",
			l.Stats.MessagesReceived.Load(), u.Stats.MessagesSent.Load())
	}
}

// TestSubtreeLinkRejectsForeignFrames: a frame type that has no business on
// a shard uplink kills that connection and latches a protocol error, but the
// listener keeps serving other uplinks.
func TestSubtreeLinkRejectsForeignFrames(t *testing.T) {
	h := &recordingHandler{}
	l, err := ListenSubtreeParent("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rogue, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	if _, err := rogue.Write(batchFrameOf(0, &core.Violation{NodeID: 1, Kind: core.ViolationSafeZone,
		X: []float64{0.5}})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "foreign frame to latch an error", func() bool {
		return errors.Is(l.Err(), errMalformedFrame)
	})

	// The listener survives: a fresh, well-behaved uplink still flows.
	u, err := DialSubtreeParent(l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SendPartial(&core.Partial{ShardID: 0, NodeID: -1, Epoch: 1, Weight: 1,
		Accs: make([]linalg.Acc, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "post-rogue partial", func() bool { p, _ := h.counts(); return p == 1 })
}

// lockedTree lets the test goroutine read a tree the listener also enters.
// The listener serializes its own handler calls; this lock orders them
// against the test's reads and its direct kill.
type lockedTree struct {
	mu sync.Mutex
	t  *shard.Tree
}

func (l *lockedTree) AcceptPartial(p *core.Partial) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.AcceptPartial(p)
}

func (l *lockedTree) HandleSubtreeRejoinMsg(m *core.SubtreeRejoin) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.HandleSubtreeRejoinMsg(m)
}

func (l *lockedTree) do(fn func(t *shard.Tree)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.t)
}

// TestSubtreeUplinkRejoinHealsTree is the wire-level heal path: a sub-tree
// is partitioned away (uplink dies, sub-tree killed), then a fresh uplink
// re-registers the whole partition with one SubtreeRejoin frame and the tree
// returns to full strength.
func TestSubtreeUplinkRejoinHealsTree(t *testing.T) {
	fn := funcs.SqNorm(2)
	comm := &staticComm{x: []float64{0.5, 0.5}}
	tr, err := shard.NewTree(fn, 4, core.Config{Epsilon: 0.5}, comm, shard.Options{Shards: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(); err != nil {
		t.Fatal(err)
	}
	lt := &lockedTree{t: tr}
	l, err := ListenSubtreeParent("127.0.0.1:0", lt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	u, err := DialSubtreeParent(l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u.Close() // the partition event: the child's link drops
	lt.do(func(tr *shard.Tree) {
		if err := tr.KillSubtree(1); err != nil {
			t.Fatal(err)
		}
		if !tr.Degraded() || tr.LiveCount() != 2 {
			t.Fatalf("kill did not degrade the tree: degraded=%v live=%d", tr.Degraded(), tr.LiveCount())
		}
	})

	u2, err := DialSubtreeParent(l.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	if err := u2.SendSubtreeRejoin(&core.SubtreeRejoin{ShardID: 1, IDs: []int{2, 3},
		Xs: [][]float64{{0.6, 0.4}, {0.4, 0.6}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "tree to heal", func() (healed bool) {
		lt.do(func(tr *shard.Tree) { healed = !tr.Degraded() && tr.LiveCount() == 4 })
		return healed
	})
	if err := l.Err(); err != nil {
		t.Fatalf("healing rejoin latched an error: %v", err)
	}
}

// overlapHandler counts handler calls that start while another is running.
type overlapHandler struct {
	inside, overlaps, calls atomic.Int64
}

func (h *overlapHandler) AcceptPartial(*core.Partial) bool {
	if h.inside.Add(1) > 1 {
		h.overlaps.Add(1)
	}
	for i := 0; i < 50; i++ {
		runtime.Gosched() // widen the window a concurrent call would land in
	}
	h.inside.Add(-1)
	h.calls.Add(1)
	return true
}

func (h *overlapHandler) HandleSubtreeRejoinMsg(*core.SubtreeRejoin) error { return nil }

// TestSubtreeListenerSerializesHandler streams partials from two uplinks at
// once: the listener must hand them to its handler one call at a time, since
// a shard.Tree is single-threaded.
func TestSubtreeListenerSerializesHandler(t *testing.T) {
	h := &overlapHandler{}
	l, err := ListenSubtreeParent("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const uplinks, perUplink = 2, 200
	var wg sync.WaitGroup
	for k := 0; k < uplinks; k++ {
		u, err := DialSubtreeParent(l.Addr(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		wg.Add(1)
		go func(shardID int) {
			defer wg.Done()
			for i := 0; i < perUplink; i++ {
				if err := u.SendPartial(&core.Partial{ShardID: shardID, NodeID: -1, Weight: 1,
					Accs: make([]linalg.Acc, 1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "every partial to arrive", func() bool {
		return h.calls.Load() == uplinks*perUplink
	})
	if n := h.overlaps.Load(); n != 0 {
		t.Fatalf("%d handler calls overlapped another", n)
	}
}

// staticComm answers every pull with one fixed vector.
type staticComm struct{ x []float64 }

func (c *staticComm) RequestData(id int) []float64 { return c.x }
func (c *staticComm) SendSync(int, *core.Sync)     {}
func (c *staticComm) SendSlack(int, *core.Slack)   {}
