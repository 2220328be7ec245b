package transport

import (
	"net"
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

func TestCoordinatorRejectsGarbageFrames(t *testing.T) {
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
	// A frame header claiming an absurd length must be rejected without
	// allocation.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for coord.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("oversized frame not detected")
		default:
			time.Sleep(10 * time.Millisecond)
		}
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

// TestNodeSurvivesUncheckableSync plays a coordinator whose first sync is
// well-framed but uncheckable (vectors of another dimension, which used to
// panic the node inside the safe-zone check): the node counts it, stays
// alive and un-armed, and installs the well-formed sync that follows.
func TestNodeSurvivesUncheckableSync(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	good := &core.Sync{NodeID: 0, Method: core.MethodE, Kind: core.ConvexDiff,
		X0: []float64{0, 0}, F0: 7, GradF0: []float64{0, 0}, L: 6, U: 8, Slack: []float64{0, 0},
		WithMatrix: true,
		Matrix:     &linalg.EigFactor{Lam: []float64{-1}, V: &linalg.Mat{Rows: 1, Cols: 2, Data: []float64{0.6, 0.8}}}}
	bad := *good
	bad.X0, bad.GradF0 = []float64{0, 0, 0}, []float64{0, 0, 0}
	bad.Matrix = &linalg.EigFactor{Lam: []float64{-1}, V: linalg.NewMat(1, 3)}
	release := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var stats TrafficStats
		var mu sync.Mutex
		if _, err := decodeFrame(conn, &stats); err != nil { // registration
			return
		}
		if err := writeFrame(conn, &bad, 0, time.Second, &stats, &mu); err != nil {
			return
		}
		<-release
		if err := writeFrame(conn, good, 0, time.Second, &stats, &mu); err != nil {
			return
		}
		<-release
	}()
	defer close(release)

	reg := obs.NewRegistry()
	f := funcs.InnerProduct(1)
	node, err := DialNode(ln.Addr().String(), 0, f, []float64{0, 0},
		Options{MaxReconnectAttempts: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	const metric = `automon_transport_rejected_syncs_total{node="0"}`
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot()[metric] != 1 {
		if node.Err() != nil || time.Now().After(deadline) {
			t.Fatalf("refused sync not counted: %v, err %v", reg.Snapshot()[metric], node.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := node.Update([]float64{50, 50}); err != nil {
		t.Fatalf("update after a refused sync: %v", err)
	}
	release <- struct{}{}
	for node.CurrentValue() != good.F0 {
		if node.Err() != nil || time.Now().After(deadline) {
			t.Fatalf("well-formed sync after the refused one not installed, err %v", node.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Snapshot()[metric]; got != 1 {
		t.Fatalf("rejected syncs = %v, want 1", got)
	}
}
