package transport

// Protocol-under-fault suite: the cluster runs over chaos-wrapped
// connections (injected delays, duplicates, truncations, drops, and hard
// disconnects), every node is killed and rejoins at least once, and
// afterwards the protocol must re-converge to within ε of f over the live
// nodes — with no leaked goroutines and the traffic-accounting identity
// intact on every endpoint.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/obs"
	"automon/internal/transport/chaos"
)

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitQuiesce blocks until the cluster-wide message counters stop moving.
func waitQuiesce(coord *Coordinator, nodes []*NodeClient) {
	stable, last := 0, int64(-1)
	for stable < 5 {
		time.Sleep(20 * time.Millisecond)
		cur := coord.Stats.MessagesSent.Load() + coord.Stats.MessagesReceived.Load()
		for _, nd := range nodes {
			cur += nd.Stats.MessagesSent.Load() + nd.Stats.MessagesReceived.Load()
		}
		if cur == last {
			stable++
		} else {
			stable = 0
		}
		last = cur
	}
}

// checkStatsIdentity asserts the accounting identity
// Wire = Payload + Frames·(header+overhead) + BatchOverhead on both
// directions of one endpoint's counters. Faults may make the two sides of a
// link disagree (dropped and duplicated frames), but each side's own
// accounting must never go inconsistent. Without batching every message is
// its own frame (Frames == Messages, BatchOverhead == 0), so this is the
// historical per-message identity.
func checkStatsIdentity(t *testing.T, name string, s *TrafficStats) {
	t.Helper()
	const perFrame = int64(frameHeader + perMessageWireOverhead)
	if got, want := s.WireSent.Load(),
		s.PayloadSent.Load()+s.FramesSent.Load()*perFrame+s.BatchOverheadSent.Load(); got != want {
		t.Errorf("%s: send identity broken: wire=%d, payload+overhead=%d", name, got, want)
	}
	if got, want := s.WireReceived.Load(),
		s.PayloadReceived.Load()+s.FramesReceived.Load()*perFrame+s.BatchOverheadReceived.Load(); got != want {
		t.Errorf("%s: recv identity broken: wire=%d, payload+overhead=%d", name, got, want)
	}
	if s.FramesSent.Load() > s.MessagesSent.Load() {
		t.Errorf("%s: more frames than messages sent", name)
	}
	if s.FramesReceived.Load() > s.MessagesReceived.Load() {
		t.Errorf("%s: more frames than messages received", name)
	}
}

// checkNoGoroutineLeak waits for the goroutine count to return to the
// baseline captured before the cluster started.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func closeCluster(coord *Coordinator, nodes []*NodeClient) {
	for _, nd := range nodes {
		nd.Close()
	}
	coord.Close()
}

// TestChaosKillAndRejoinEveryNode is the acceptance schedule: background
// faults (delay, duplicate, truncate, disconnect) while data flows, then a
// deterministic kill of every node's connection, then a clean final round.
// Every node must rejoin, and the final estimate must sit within ε of the
// ground truth over the (fully revived) node population.
func TestChaosKillAndRejoinEveryNode(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const half, n = 2, 3
	f := funcs.InnerProduct(half)
	eps := 0.2

	dialer := chaos.NewDialer(chaos.Config{
		Seed:     7,
		MaxDelay: 2 * time.Millisecond,
		// No silent drops here: every fault either delays, duplicates, or
		// kills the connection, so the rejoin full sync always repairs state.
		// TestChaosLossyLinkReconverges covers drops.
		Write: chaos.FaultRates{Delay: 0.10, Duplicate: 0.05, Truncate: 0.02, Disconnect: 0.02},
		Read:  chaos.FaultRates{Delay: 0.10, Disconnect: 0.02},
	})
	dialer.SetEnabled(false) // clean setup; faults start once the cluster is up

	opts := Options{
		Dial:                 dialer.Dial,
		RequestTimeout:       2 * time.Second,
		RegisterTimeout:      2 * time.Second,
		ResolveTimeout:       30 * time.Second,
		ReconnectBase:        5 * time.Millisecond,
		MaxReconnectAttempts: 25,
	}
	initial := [][]float64{
		{0.5, 0.5, 1, 1},
		{0.5, 0.5, 1, 1},
		{0.5, 0.5, 1, 1},
	}
	coord, nodes := startCluster(t, f, n, core.Config{Epsilon: eps}, opts, initial)
	defer closeCluster(coord, nodes)

	dialer.SetEnabled(true)

	// Phase 1: all nodes drift upward while the link misbehaves underneath.
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *NodeClient) {
			defer wg.Done()
			for step := 1; step <= 25; step++ {
				u := 0.5 + 0.04*float64(step)
				if err := nd.Update([]float64{u, u, 1, 1}); err != nil {
					t.Errorf("node %d update %d under chaos: %v", i, step, err)
					return
				}
			}
		}(i, nd)
	}
	wg.Wait()
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: kill every node's connection, one at a time, and wait for each
	// to reconnect and rejoin before killing the next.
	for i, nd := range nodes {
		before := nd.Reconnects()
		nd.DropConnection()
		waitFor(t, 15*time.Second, "node rejoin after forced kill", func() bool {
			return nd.Reconnects() > before
		})
		if nd.Reconnects() < 1 {
			t.Fatalf("node %d never rejoined", i)
		}
	}

	// Phase 3: faults off, one last clean round far outside the current zone
	// so the final state is rebuilt over chaos-free connections.
	dialer.SetEnabled(true) // no-op; explicit for symmetry with the check below
	if dialer.Stats.Total() == 0 {
		t.Fatal("chaos schedule injected no faults; the test exercised nothing")
	}
	dialer.SetEnabled(false)
	final := []float64{2, 2, 1, 1}
	for i, nd := range nodes {
		if err := nd.Update(final); err != nil {
			t.Fatalf("node %d clean final update: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "all nodes live again", func() bool {
		return !coord.Degraded() && coord.LiveNodes() == n
	})
	waitQuiesce(coord, nodes)

	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	truth := f.Value(final) // every node holds `final`, so the mean is `final`
	if got := coord.Estimate(); math.Abs(got-truth) > eps+1e-9 {
		t.Fatalf("estimate %v after recovery, want within ε=%v of %v", got, eps, truth)
	}
	if stats := coord.CoordStats(); stats.Rejoins < n {
		t.Fatalf("coordinator recorded %d rejoins, want ≥ %d (every node killed once)", stats.Rejoins, n)
	}

	checkStatsIdentity(t, "coordinator", &coord.Stats)
	for i, nd := range nodes {
		checkStatsIdentity(t, "node "+string(rune('0'+i)), &nd.Stats)
	}

	closeCluster(coord, nodes)
	checkNoGoroutineLeak(t, baseline)
}

// TestChaosLossyLinkReconverges turns on silent frame drops — the one fault
// that can desynchronize node and coordinator state without killing the
// connection. Transient resolution timeouts are tolerated during the storm;
// once the link is clean again the protocol must re-converge.
func TestChaosLossyLinkReconverges(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const half, n = 2, 3
	f := funcs.InnerProduct(half)
	eps := 0.2

	dialer := chaos.NewDialer(chaos.Config{
		Seed:     11,
		MaxDelay: time.Millisecond,
		Write:    chaos.FaultRates{Drop: 0.05, Disconnect: 0.03},
		Read:     chaos.FaultRates{Drop: 0.02, Disconnect: 0.03},
	})
	dialer.SetEnabled(false)

	opts := Options{
		Dial:                 dialer.Dial,
		RequestTimeout:       time.Second,
		RegisterTimeout:      time.Second,
		ResolveTimeout:       2 * time.Second,
		ReconnectBase:        5 * time.Millisecond,
		MaxReconnectAttempts: 25,
	}
	initial := [][]float64{
		{0.5, 0.5, 1, 1},
		{0.5, 0.5, 1, 1},
		{0.5, 0.5, 1, 1},
	}
	coord, nodes := startCluster(t, f, n, core.Config{Epsilon: eps}, opts, initial)
	defer closeCluster(coord, nodes)

	dialer.SetEnabled(true)

	// Storm: updates may time out while frames vanish; only a permanent
	// client failure (reconnect budget exhausted) or a fatal coordinator
	// error is a bug.
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *NodeClient) {
			defer wg.Done()
			for step := 1; step <= 15; step++ {
				u := 0.5 + 0.06*float64(step)
				if err := nd.Update([]float64{u, u, 1, 1}); err != nil {
					if perm := nd.Err(); perm != nil {
						t.Errorf("node %d failed permanently under loss: %v", i, perm)
						return
					}
					// transient: dropped frames stalled this resolution
				}
			}
		}(i, nd)
	}
	wg.Wait()
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}

	// Clean repair: keep pushing the final vector until the estimate lands.
	// Early clean updates can still hit a connection desynchronized by a
	// read-side drop; those recycle and rejoin, so retrying converges.
	dialer.SetEnabled(false)
	final := []float64{2, 2, 1, 1}
	truth := f.Value(final)
	deadline := time.Now().Add(20 * time.Second)
	for {
		healthy := true
		for i, nd := range nodes {
			if err := nd.Update(final); err != nil {
				if perm := nd.Err(); perm != nil {
					t.Fatalf("node %d failed permanently during repair: %v", i, perm)
				}
				healthy = false
			}
		}
		if healthy && !coord.Degraded() &&
			math.Abs(coord.Estimate()-truth) <= eps+1e-9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never re-converged: estimate %v, truth %v, degraded %v, live %d/%d",
				coord.Estimate(), truth, coord.Degraded(), coord.LiveNodes(), n)
		}
		time.Sleep(20 * time.Millisecond)
	}

	waitQuiesce(coord, nodes)
	checkStatsIdentity(t, "coordinator", &coord.Stats)
	for i, nd := range nodes {
		checkStatsIdentity(t, "node "+string(rune('0'+i)), &nd.Stats)
	}

	closeCluster(coord, nodes)
	checkNoGoroutineLeak(t, baseline)
}

// TestCoordinatorDegradesAndRecoversOnNodeDeath pins the degraded-estimate
// semantics without randomness: a dead node shifts the estimate to the
// live-node average with Degraded() raised, and a rejoin restores the full
// population.
func TestCoordinatorDegradesAndRecoversOnNodeDeath(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const half, n = 1, 2
	f := funcs.InnerProduct(half) // f(x) = x[0]·x[1]
	initial := [][]float64{{1, 1}, {3, 1}}
	opts := Options{RequestTimeout: time.Second}
	coord, nodes := startCluster(t, f, n, core.Config{Epsilon: 0.5}, opts, initial)
	defer coord.Close()
	defer nodes[0].Close()

	// x̄ = {2,1} ⇒ f = 2.
	if got := coord.Estimate(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("initial estimate = %v, want 2", got)
	}
	if coord.Degraded() {
		t.Fatal("healthy cluster reports Degraded")
	}

	// Node 1 dies for good (client closed: no reconnect will come).
	nodes[1].Close()
	waitFor(t, 10*time.Second, "coordinator to mark the node dead", func() bool {
		return coord.Degraded() && coord.LiveNodes() == 1
	})
	// The estimate must degrade to f over the surviving node's vector.
	waitFor(t, 10*time.Second, "estimate to degrade to the live average", func() bool {
		return math.Abs(coord.Estimate()-1) <= 1e-9
	})
	if stats := coord.CoordStats(); stats.NodeDeaths < 1 {
		t.Fatalf("NodeDeaths = %d, want ≥ 1", stats.NodeDeaths)
	}

	// A fresh client rejoins under the same id with a new vector.
	revived, err := DialNode(coord.Addr(), 1, f, []float64{5, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	if err := revived.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "cluster to leave degraded mode", func() bool {
		return !coord.Degraded() && coord.LiveNodes() == n
	})
	// x̄ = ({1,1}+{5,1})/2 = {3,1} ⇒ f = 3, restored exactly by the rejoin
	// full sync.
	waitFor(t, 10*time.Second, "estimate to cover the full population", func() bool {
		return math.Abs(coord.Estimate()-3) <= 1e-9
	})
	if stats := coord.CoordStats(); stats.Rejoins < 1 {
		t.Fatalf("Rejoins = %d, want ≥ 1", stats.Rejoins)
	}
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}

	revived.Close()
	nodes[0].Close()
	coord.Close()
	checkNoGoroutineLeak(t, baseline)
}

// syncDropper is a node-side connection that re-frames the inbound stream and
// swallows the first frame that opens with a Sync — a frame-exact loss the
// probabilistic injector cannot schedule. dropped is shared across the
// node's reconnections so exactly one Sync is ever lost.
type syncDropper struct {
	net.Conn
	dropped *atomic.Bool
	pending bytes.Buffer
}

func (c *syncDropper) Read(p []byte) (int, error) {
	for c.pending.Len() == 0 {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[:])&batchLenMask)
		if _, err := io.ReadFull(c.Conn, body); err != nil {
			return 0, err
		}
		if core.MsgType(body[batchHdrLen+batchSubHeader]) == core.MsgSync && c.dropped.CompareAndSwap(false, true) {
			continue
		}
		c.pending.Write(hdr[:])
		c.pending.Write(body)
	}
	return c.pending.Read(p)
}

// TestLostFirstSyncHealsByReconnect: the first Sync to one node of an ADCD-E
// function is lost in flight. The coordinator has already marked the factor
// delivered, so every later Sync arrives without it and the node must refuse
// it; before the fix the node counted the refusal and stayed zone-less and
// silent for good. Now a refusal recycles the connection, the Rejoin makes
// the coordinator forget what it sent, and one reconnect later the node holds
// a checkable zone and the estimate is ε-correct over both nodes.
func TestLostFirstSyncHealsByReconnect(t *testing.T) {
	const eps = 0.2
	f := funcs.InnerProduct(2) // constant Hessian: ADCD-E, factor shipped once
	initial := [][]float64{{0.5, 0.5, 1, 1}, {0.5, 0.5, 1, 1}}
	coord, err := ListenCoordinator("127.0.0.1:0", f, 2, core.Config{Epsilon: eps}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dropped atomic.Bool
	lossy := Options{ReconnectBase: time.Millisecond,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			return &syncDropper{Conn: conn, dropped: &dropped}, nil
		}}
	var nodes []*NodeClient
	for i, opts := range []Options{{}, lossy} {
		nd, err := DialNode(coord.Addr(), i, f, initial[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer closeCluster(coord, nodes)
	select {
	case <-coord.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never became ready")
	}
	if err := nodes[0].WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the initial sync to node 1 to be dropped", dropped.Load)

	// A move lazy sync cannot balance forces a full sync; its Sync to node 1
	// carries no factor.
	if err := nodes[0].Update([]float64{3, 3, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].WaitReady(5 * time.Second); err != nil {
		t.Fatalf("node 1 never installed a zone after losing its first sync (refused %d, reconnects %d): %v",
			nodes[1].RejectedSyncs(), nodes[1].Reconnects(), err)
	}
	if nodes[1].RejectedSyncs() != 1 || nodes[1].Reconnects() != 1 {
		t.Fatalf("healing cost %d refusals and %d reconnects, want 1 and 1",
			nodes[1].RejectedSyncs(), nodes[1].Reconnects())
	}

	xs := [][]float64{{2, 2, 1, 1}, {1, 1, 1, 1}}
	for i, nd := range nodes {
		if err := nd.Update(xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiesce(coord, nodes)
	truth := f.Value(linalg.Mean(make([]float64, 4), xs...))
	if got := coord.Estimate(); math.Abs(got-truth) > eps+1e-9 {
		t.Fatalf("estimate %v is %v from f(x̄) = %v, beyond ε = %v", got, math.Abs(got-truth), truth, eps)
	}
	if coord.Degraded() || coord.Err() != nil {
		t.Fatalf("coordinator degraded=%v err=%v after the heal", coord.Degraded(), coord.Err())
	}
}

// slackForger is a node-side connection that re-frames the inbound stream
// and, right after the first frame that opens with a Sync, delivers one
// forged Slack of the wrong length. forged is shared across the node's
// reconnections so exactly one Slack is ever forged.
type slackForger struct {
	net.Conn
	id      int
	forged  *atomic.Bool
	pending bytes.Buffer
}

func (c *slackForger) Read(p []byte) (int, error) {
	for c.pending.Len() == 0 {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		body := make([]byte, binary.LittleEndian.Uint32(hdr[:])&batchLenMask)
		if _, err := io.ReadFull(c.Conn, body); err != nil {
			return 0, err
		}
		c.pending.Write(hdr[:])
		c.pending.Write(body)
		if core.MsgType(body[batchHdrLen+batchSubHeader]) == core.MsgSync && c.forged.CompareAndSwap(false, true) {
			c.pending.Write(batchFrameOf(0, &core.Slack{NodeID: c.id, Slack: []float64{9}}))
		}
	}
	return c.pending.Read(p)
}

// TestForgedSlackHealsByReconnect: a Slack with one entry reaches a node of
// a 4-dimensional function right after its first sync. Before the fix the
// node copied it over the first slack entry and carried on, its slack no
// longer summing to zero with the others. Now the node refuses it like an
// uncheckable sync: it counts the refusal, recycles the connection, and the
// Rejoin's full sync hands it a consistent slack, so the estimate is
// ε-correct again.
func TestForgedSlackHealsByReconnect(t *testing.T) {
	const eps = 0.2
	f := funcs.InnerProduct(2)
	initial := [][]float64{{0.5, 0.5, 1, 1}, {0.5, 0.5, 1, 1}}
	coord, err := ListenCoordinator("127.0.0.1:0", f, 2, core.Config{Epsilon: eps}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var forged atomic.Bool
	reg := obs.NewRegistry()
	forging := Options{ReconnectBase: time.Millisecond, Metrics: reg,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout(network, addr, timeout)
			if err != nil {
				return nil, err
			}
			return &slackForger{Conn: conn, id: 1, forged: &forged}, nil
		}}
	var nodes []*NodeClient
	for i, opts := range []Options{{}, forging} {
		nd, err := DialNode(coord.Addr(), i, f, initial[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	defer closeCluster(coord, nodes)
	waitFor(t, 10*time.Second, "node 1 to rejoin after refusing the forged slack", func() bool {
		return forged.Load() && nodes[1].Reconnects() == 1
	})
	for _, nd := range nodes {
		if err := nd.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := nodes[1].RejectedSyncs(); got != 1 {
		t.Fatalf("node 1 refused %d messages, want 1", got)
	}
	if got := reg.Snapshot()[`automon_transport_rejected_syncs_total{node="1"}`]; got != 1 {
		t.Fatalf("rejected-syncs metric = %v, want 1", got)
	}

	xs := [][]float64{{2, 2, 1, 1}, {1, 1, 1, 1}}
	for i, nd := range nodes {
		if err := nd.Update(xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiesce(coord, nodes)
	truth := f.Value(linalg.Mean(make([]float64, 4), xs...))
	if got := coord.Estimate(); math.Abs(got-truth) > eps+1e-9 {
		t.Fatalf("estimate %v is %v from f(x̄) = %v, beyond ε = %v", got, math.Abs(got-truth), truth, eps)
	}
	if coord.Degraded() || coord.Err() != nil || nodes[1].Err() != nil {
		t.Fatalf("after the heal: coordinator degraded=%v err=%v, node err=%v", coord.Degraded(), coord.Err(), nodes[1].Err())
	}
}
