package transport

import (
	"errors"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/obs"
)

func TestDialNodeRefusesDeadAddress(t *testing.T) {
	f := funcs.InnerProduct(1)
	if _, err := DialNode("127.0.0.1:1", 0, f, []float64{0, 0},
		Options{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to a dead address must fail")
	}
}

// rejectAndKeepServing is the one registration posture, asserted on a
// single-group coordinator: whatever bytes a stray connection opens with, the
// coordinator rejects and counts exactly that connection, latches no error,
// and a well-formed node registering afterwards still reaches Ready.
func rejectAndKeepServing(t *testing.T, stray []byte) {
	t.Helper()
	f := funcs.InnerProduct(1)
	coord, err := ListenCoordinator("127.0.0.1:0", f, 1, core.Config{Epsilon: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stray); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the stray registration to be rejected", func() bool {
		return coord.srv.RejectedRegistrations() == 1
	})
	// The coordinator hung up on the stray.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("rejected connection still open: read err %v", err)
	}

	node, err := DialNode(coord.Addr(), 0, f, []float64{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	select {
	case <-coord.Ready():
	case <-time.After(10 * time.Second):
		t.Fatalf("coordinator never became ready after a rejected registration (err %v)", coord.Err())
	}
	if err := node.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := coord.Err(); err != nil {
		t.Fatalf("a peer's bytes latched a coordinator error: %v", err)
	}
	if got := coord.srv.RejectedRegistrations(); got != 1 {
		t.Fatalf("rejected registrations = %d, want 1", got)
	}
}

// TestCoordinatorRejectsGarbageFrames: first words that are not a batch
// header — an absurd length, and a well-formed registration in the retired v1
// framing — cost the sender its connection and nothing else.
func TestCoordinatorRejectsGarbageFrames(t *testing.T) {
	t.Run("garbage", func(t *testing.T) { rejectAndKeepServing(t, []byte{0xFF, 0xFF, 0xFF, 0xFF}) })
	t.Run("v1-registration", func(t *testing.T) {
		rejectAndKeepServing(t, v1FrameOf(&core.DataResponse{NodeID: 0, X: []float64{1, 1}}))
	})
}

// TestBadRegistrationRejected: well-framed but wrong registrations — a node
// id outside the roster, a group this coordinator does not host, a message
// that is not a registration, a registration with passengers — are rejected
// and counted the same way.
func TestBadRegistrationRejected(t *testing.T) {
	reg := &core.DataResponse{NodeID: 0, X: []float64{1, 1}}
	for name, stray := range map[string][]byte{
		"node-id":      batchFrameOf(0, &core.DataResponse{NodeID: 7, X: []float64{0, 0}}),
		"group":        batchFrameOf(3, reg),
		"message-type": batchFrameOf(0, &core.Slack{NodeID: 0, Slack: []float64{0, 0}}),
		"passengers":   batchFrameOf(0, reg, &core.Violation{NodeID: 0, Kind: core.ViolationSafeZone, X: []float64{1, 1}}),
	} {
		stray := stray
		t.Run(name, func(t *testing.T) { rejectAndKeepServing(t, stray) })
	}
}

func TestNodeSurvivesCoordinatorShutdown(t *testing.T) {
	f := funcs.InnerProduct(1)
	initial := [][]float64{{1, 1}, {1, 1}}
	coord, nodes := startCluster(t, f, 2, core.Config{Epsilon: 0.5}, Options{}, initial)
	coord.Close()
	// Updates after shutdown must surface an error, not hang or panic.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := nodes[0].Update([]float64{50, 50}); err != nil {
			for _, nd := range nodes {
				nd.Close()
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("node never noticed the coordinator was gone")
}

func TestWaitReadyFailsFastOnDeadClient(t *testing.T) {
	// A listener that drops every connection immediately: registration
	// succeeds at the TCP level, but the client's serve loop dies right away
	// and — with reconnection disabled — the client fails permanently.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	f := funcs.InnerProduct(1)
	node, err := DialNode(ln.Addr().String(), 0, f, []float64{0, 0},
		Options{MaxReconnectAttempts: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Wait until the failure is recorded, then WaitReady must return at once
	// even with a long timeout — not sit out the full duration.
	deadline := time.Now().Add(5 * time.Second)
	for node.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("client never recorded the connection failure")
		}
		time.Sleep(10 * time.Millisecond)
	}
	start := time.Now()
	if err := node.WaitReady(time.Hour); err == nil {
		t.Fatal("WaitReady succeeded on a dead client")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("WaitReady took %v on an already-failed client; must return immediately", elapsed)
	}
}

func TestWaitReadyTimesOut(t *testing.T) {
	f := funcs.InnerProduct(1)
	// Coordinator expects 2 nodes; only one dials in, so Ready never fires
	// and the node's WaitReady must time out rather than block forever.
	coord, err := ListenCoordinator("127.0.0.1:0", f, 2, core.Config{Epsilon: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	node, err := DialNode(coord.Addr(), 0, f, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.WaitReady(200 * time.Millisecond); err == nil {
		t.Fatal("WaitReady should time out without a first sync")
	}
}

// TestNodeSurvivesUncheckableSync plays a coordinator whose syncs are
// well-framed but uncheckable (vectors of another dimension, which used to
// panic the node inside the safe-zone check). The coordinator believes a sync
// it sent is installed, so the node must not just drop it: it counts the
// refusal and recycles the connection, and the Rejoin that follows is what
// earns it a fresh, complete sync. A coordinator that only ever sends
// uncheckable syncs costs the node its reconnect budget, not an endless loop.
func TestNodeSurvivesUncheckableSync(t *testing.T) {
	good := &core.Sync{NodeID: 0, Method: core.MethodE, Kind: core.ConvexDiff,
		X0: []float64{0, 0}, F0: 7, GradF0: []float64{0, 0}, L: 6, U: 8, Slack: []float64{0, 0},
		WithMatrix: true,
		Matrix:     &linalg.EigFactor{Lam: []float64{-1}, V: &linalg.Mat{Rows: 1, Cols: 2, Data: []float64{0.6, 0.8}}}}
	bad := *good
	bad.X0, bad.GradF0 = []float64{0, 0, 0}, []float64{0, 0, 0}
	bad.Matrix = &linalg.EigFactor{Lam: []float64{-1}, V: linalg.NewMat(1, 3)}

	// fakeCoordinator answers the k-th connection's registration frame with
	// reply(k) and records which message type opened each connection.
	fakeCoordinator := func(t *testing.T, reply func(k int) *core.Sync) (addr string, opened func() []core.MsgType) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var types []core.MsgType
		var conns []net.Conn
		t.Cleanup(func() {
			ln.Close()
			mu.Lock()
			defer mu.Unlock()
			for _, c := range conns {
				c.Close()
			}
		})
		go func() {
			for k := 0; ; k++ {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				var stats TrafficStats
				fb, err := decodeAnyFrame(conn, &stats)
				if err != nil {
					conn.Close()
					continue
				}
				mu.Lock()
				types = append(types, fb.msgs[0].Type())
				conns = append(conns, conn)
				mu.Unlock()
				w := newFrameWriter(conn, 0, Options{}, &stats)
				if err := w.writeMsg(reply(k), true); err != nil {
					return
				}
			}
		}()
		return ln.Addr().String(), func() []core.MsgType {
			mu.Lock()
			defer mu.Unlock()
			return append([]core.MsgType(nil), types...)
		}
	}
	f := funcs.InnerProduct(1)

	t.Run("reconnect-heals", func(t *testing.T) {
		addr, opened := fakeCoordinator(t, func(k int) *core.Sync {
			if k == 0 {
				return &bad
			}
			return good
		})
		reg := obs.NewRegistry()
		node, err := DialNode(addr, 0, f, []float64{0, 0}, Options{ReconnectBase: time.Millisecond, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		if err := node.WaitReady(10 * time.Second); err != nil {
			t.Fatalf("node never installed the sync its rejoin earned: %v", err)
		}
		if got := node.CurrentValue(); got != good.F0 {
			t.Fatalf("installed zone has f(x0) = %v, want %v", got, good.F0)
		}
		if got, want := opened(), []core.MsgType{core.MsgDataResponse, core.MsgRejoin}; !reflect.DeepEqual(got, want) {
			t.Fatalf("connections opened with %v, want %v", got, want)
		}
		if node.RejectedSyncs() != 1 || node.Reconnects() != 1 || node.Err() != nil {
			t.Fatalf("rejected syncs %d, reconnects %d, err %v; want 1, 1, nil",
				node.RejectedSyncs(), node.Reconnects(), node.Err())
		}
		if got := reg.Snapshot()[`automon_transport_rejected_syncs_total{node="0"}`]; got != 1 {
			t.Fatalf("rejected-syncs metric = %v, want 1", got)
		}
	})

	t.Run("budget-bounds-the-loop", func(t *testing.T) {
		addr, _ := fakeCoordinator(t, func(int) *core.Sync { return &bad })
		node, err := DialNode(addr, 0, f, []float64{0, 0},
			Options{MaxReconnectAttempts: 2, ReconnectBase: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		waitFor(t, 10*time.Second, "the node to give up on a coordinator it cannot check", func() bool {
			return node.Err() != nil
		})
		if got := node.RejectedSyncs(); got != 3 {
			t.Fatalf("rejected syncs = %d, want 3 (one per connection: the first and two reconnects)", got)
		}
		if err := node.WaitReady(time.Second); err == nil {
			t.Fatal("node reported ready without ever installing a zone")
		}
	})
}
