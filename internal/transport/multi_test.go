package transport

// Multi-tenancy suite: several monitoring groups share one listener, one
// accept loop, and one metrics registry. The tests pin tenant routing,
// per-group metric labeling, hostile-registration containment, and — the
// strongest property — bit-identical isolation: chaos in one group must not
// perturb another group's estimates or traffic by a single bit.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/obs"
)

// groupSpec describes one tenant for startMultiCluster.
type groupSpec struct {
	gid     GroupID
	f       *core.Function
	cfg     core.Config
	initial [][]float64
}

// startMultiCluster brings up one MultiCoordinator hosting every spec'd
// group, dials that group's nodes, and waits for all groups to become ready.
func startMultiCluster(t *testing.T, opts Options, specs []groupSpec) (*MultiCoordinator, map[GroupID][]*NodeClient) {
	t.Helper()
	mc, err := ListenMulti("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	coords := make(map[GroupID]*Coordinator, len(specs))
	for _, sp := range specs {
		c, err := mc.AddGroup(sp.gid, sp.f, len(sp.initial), sp.cfg)
		if err != nil {
			t.Fatal(err)
		}
		coords[sp.gid] = c
	}
	nodes := make(map[GroupID][]*NodeClient, len(specs))
	for _, sp := range specs {
		nodeOpts := opts
		nodeOpts.Group = sp.gid
		for i, x := range sp.initial {
			nd, err := DialNode(mc.Addr(), i, sp.f, x, nodeOpts)
			if err != nil {
				t.Fatal(err)
			}
			nodes[sp.gid] = append(nodes[sp.gid], nd)
		}
	}
	for gid, c := range coords {
		select {
		case <-c.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("group %d never became ready", gid)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("group %d: %v", gid, err)
		}
		for i, nd := range nodes[gid] {
			if err := nd.WaitReady(10 * time.Second); err != nil {
				t.Fatalf("group %d node %d: %v", gid, i, err)
			}
		}
	}
	return mc, nodes
}

func closeMultiCluster(mc *MultiCoordinator, nodes map[GroupID][]*NodeClient) {
	for _, nds := range nodes {
		for _, nd := range nds {
			nd.Close()
		}
	}
	mc.Close()
}

// TestMultiGroupIndependentMonitoring runs three tenants with different
// functions, dimensions, and populations over a single listener. Each group's
// estimate must track its own ground truth, and the shared registry must
// carry every group's counters under distinct group labels.
func TestMultiGroupIndependentMonitoring(t *testing.T) {
	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	opts := Options{Metrics: reg}
	specs := []groupSpec{
		{gid: 0, f: funcs.InnerProduct(2), cfg: core.Config{Epsilon: 0.2},
			initial: [][]float64{{0.5, 0.5, 1, 1}, {0.5, 0.5, 1, 1}, {0.5, 0.5, 1, 1}}},
		{gid: 1, f: funcs.SqNorm(2), cfg: core.Config{Epsilon: 0.3},
			initial: [][]float64{{1, 0}, {1, 0}}},
		{gid: 5, f: funcs.Variance(), cfg: core.Config{Epsilon: 0.1},
			initial: [][]float64{funcs.AugmentSquares(1), funcs.AugmentSquares(1)}},
	}
	mc, nodes := startMultiCluster(t, opts, specs)
	defer closeMultiCluster(mc, nodes)

	// Drive each group through a distinct drift, sequentially per group so
	// each group's truth is exact at the end.
	for step := 1; step <= 15; step++ {
		u := 0.5 + 0.05*float64(step)
		for _, nd := range nodes[0] {
			if err := nd.Update([]float64{u, u, 1, 1}); err != nil {
				t.Fatalf("group 0: %v", err)
			}
		}
		v := 1 + 0.1*float64(step)
		for _, nd := range nodes[1] {
			if err := nd.Update([]float64{v, 0}); err != nil {
				t.Fatalf("group 1: %v", err)
			}
		}
	}
	// Group 5 splits its population to build real variance.
	if err := nodes[5][0].Update(funcs.AugmentSquares(0)); err != nil {
		t.Fatalf("group 5: %v", err)
	}
	if err := nodes[5][1].Update(funcs.AugmentSquares(2)); err != nil {
		t.Fatalf("group 5: %v", err)
	}
	for gid, nds := range nodes {
		waitQuiesce(mc.Group(gid), nds)
	}

	type want struct {
		truth, eps float64
	}
	wants := map[GroupID]want{
		0: {truth: 2 * (0.5 + 0.05*15), eps: 0.2}, // ⟨(u,u),(1,1)⟩ = 2u
		1: {truth: (1 + 0.1*15) * (1 + 0.1*15), eps: 0.3},
		5: {truth: 1, eps: 0.1}, // values {0,2}: E[v²]−E[v]² = 2−1
	}
	for gid, w := range wants {
		c := mc.Group(gid)
		if err := c.Err(); err != nil {
			t.Fatalf("group %d died: %v", gid, err)
		}
		if got := c.Estimate(); math.Abs(got-w.truth) > w.eps+1e-9 {
			t.Fatalf("group %d estimate %v, want within ε=%v of %v", gid, got, w.eps, w.truth)
		}
	}

	// The shared registry must expose per-group labeled series for both the
	// protocol counters and the transport counters.
	snap := reg.Snapshot()
	for _, gid := range []GroupID{0, 1, 5} {
		coordKey := fmt.Sprintf(`automon_coordinator_full_syncs_total{group="%d"}`, gid)
		if _, ok := snap[coordKey]; !ok {
			t.Errorf("registry missing %s", coordKey)
		}
		wireKey := fmt.Sprintf(`automon_transport_messages_total{dir="sent",side="coordinator",group="%d"}`, gid)
		if _, ok := snap[wireKey]; !ok {
			t.Errorf("registry missing %s", wireKey)
		}
	}
	// Registration traffic lands on the shared pending-side counters.
	if _, ok := snap[`automon_transport_messages_total{dir="recv",side="coordinator",group="pending"}`]; !ok {
		t.Error("registry missing pending-side registration counters")
	}

	// Per-group accounting identities hold on every endpoint.
	for gid, nds := range nodes {
		checkStatsIdentity(t, fmt.Sprintf("group %d coordinator", gid), &mc.Group(gid).Stats)
		for i, nd := range nds {
			checkStatsIdentity(t, fmt.Sprintf("group %d node %d", gid, i), &nd.Stats)
		}
	}

	closeMultiCluster(mc, nodes)
	checkNoGoroutineLeak(t, baseline)
}

// TestMultiGroupUnknownGroupRejected pins tenant containment: a registration
// naming a group the server doesn't host is rejected and counted, while every
// hosted group keeps running — hostile peers must not be fatal in multi mode.
func TestMultiGroupUnknownGroupRejected(t *testing.T) {
	f := funcs.InnerProduct(1)
	mc, err := ListenMulti("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	c, err := mc.AddGroup(1, f, 1, core.Config{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := DialNode(mc.Addr(), 0, f, []float64{1, 1}, Options{Group: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A stranger registers for a group that doesn't exist.
	strayOpts := Options{Group: 99, MaxReconnectAttempts: 1, ReconnectBase: time.Millisecond}
	stray, err := DialNode(mc.Addr(), 0, f, []float64{0, 0}, strayOpts)
	if err == nil {
		defer stray.Close()
	}
	waitFor(t, 10*time.Second, "stray registration to be rejected", func() bool {
		return mc.RejectedRegistrations() >= 1
	})
	if err := mc.Err(); err != nil {
		t.Fatalf("hostile registration killed the server: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("hostile registration killed group 1: %v", err)
	}
	// The hosted group still monitors.
	if err := nd.Update([]float64{2, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterAfterCloseClosesTheConnection pins the register/closeGroup
// handshake: a registration that reaches a group after its Close has begun
// closes the connection instead of starting a reader that Close no longer
// waits for and that keeps the peer's socket open.
func TestRegisterAfterCloseClosesTheConnection(t *testing.T) {
	f := funcs.InnerProduct(1)
	mc, err := ListenMulti("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	c, err := mc.AddGroup(1, f, 1, core.Config{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	peer, conn := net.Pipe()
	defer peer.Close()
	c.register(0, conn, []float64{1, 1})
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("peer read after a registration on a closed group = %v, want io.EOF", err)
	}
}

// TestMultiGroupDuplicateAndBadIDs pins registry hygiene: re-adding a gid
// fails, out-of-range gids fail, and AddGroup on a single-mode server fails.
func TestMultiGroupDuplicateAndBadIDs(t *testing.T) {
	f := funcs.InnerProduct(1)
	mc, err := ListenMulti("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if _, err := mc.AddGroup(3, f, 1, core.Config{Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.AddGroup(3, f, 1, core.Config{Epsilon: 0.1}); err == nil {
		t.Fatal("duplicate group id accepted")
	}
	if _, err := mc.AddGroup(MaxGroups, f, 1, core.Config{Epsilon: 0.1}); err == nil {
		t.Fatal("out-of-range group id accepted")
	}
	if _, err := mc.AddGroup(2, f, 0, core.Config{Epsilon: 0.1}); err == nil {
		t.Fatal("empty group accepted")
	}

	coord, err := ListenCoordinator("127.0.0.1:0", f, 1, core.Config{Epsilon: 0.1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.srv.AddGroup(1, f, 1, core.Config{Epsilon: 0.1}); err == nil {
		t.Fatal("AddGroup on a single-group server accepted")
	}
}

// quiesceFast is a tighter waitQuiesce for the lockstep schedule below.
func quiesceFast(c *Coordinator, nds []*NodeClient) {
	stable, last := 0, int64(-1)
	for stable < 3 {
		time.Sleep(10 * time.Millisecond)
		cur := c.Stats.MessagesSent.Load() + c.Stats.MessagesReceived.Load()
		for _, nd := range nds {
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

// victimRound runs one lockstep round of the victim group's schedule and
// returns the coordinator estimate after the group quiesces. The group is
// quiesced after every single update: a resolution's trailing Slack/Sync
// deliveries race with the next node's violation check, so per-update
// barriers are what make the message history — not just the estimates —
// deterministic enough to compare bit-for-bit across runs.
func victimRound(t *testing.T, c *Coordinator, nds []*NodeClient, round int) float64 {
	t.Helper()
	u := 0.5 + 0.05*float64(round)
	for i, nd := range nds {
		if err := nd.Update([]float64{u, u, 1, 1}); err != nil {
			t.Fatalf("victim node %d round %d: %v", i, round, err)
		}
		quiesceFast(c, nds)
	}
	return c.Estimate()
}

// runVictimSchedule plays the full deterministic schedule against group gid
// of mc and returns the per-round estimates and final traffic counters.
func runVictimSchedule(t *testing.T, mc *MultiCoordinator, gid GroupID, nds []*NodeClient, rounds int) ([]float64, [4]int64) {
	t.Helper()
	c := mc.Group(gid)
	estimates := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		estimates[r] = victimRound(t, c, nds, r+1)
	}
	return estimates, [4]int64{
		c.Stats.MessagesSent.Load(),
		c.Stats.MessagesReceived.Load(),
		c.Stats.PayloadSent.Load(),
		c.Stats.PayloadReceived.Load(),
	}
}

// TestMultiGroupChaosIsolation is the isolation acceptance test: group 1
// (the victim) plays a fixed lockstep schedule while every node of group 2
// (the storm) is repeatedly killed and rejoins. The victim's per-round
// estimates and its total message/payload traffic must be bit-identical to a
// solo run of the same schedule on a server hosting only the victim.
func TestMultiGroupChaosIsolation(t *testing.T) {
	const rounds, n = 10, 3
	victimSpec := func() groupSpec {
		return groupSpec{gid: 1, f: funcs.InnerProduct(2), cfg: core.Config{Epsilon: 0.2},
			initial: [][]float64{{0.5, 0.5, 1, 1}, {0.5, 0.5, 1, 1}, {0.5, 0.5, 1, 1}}}
	}

	// Reference: the victim alone.
	soloMC, soloNodes := startMultiCluster(t, Options{}, []groupSpec{victimSpec()})
	soloEst, soloTraffic := runVictimSchedule(t, soloMC, 1, soloNodes[1], rounds)
	closeMultiCluster(soloMC, soloNodes)

	// Combined: victim plus a storm group whose nodes die and rejoin
	// continuously while the victim plays the same schedule.
	stormSpec := groupSpec{gid: 2, f: funcs.SqNorm(2), cfg: core.Config{Epsilon: 0.05},
		initial: [][]float64{{1, 1}, {1, 1}}}
	opts := Options{ReconnectBase: time.Millisecond, MaxReconnectAttempts: 50}
	mc, nodes := startMultiCluster(t, opts, []groupSpec{victimSpec(), stormSpec})
	defer closeMultiCluster(mc, nodes)

	stop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		step := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			step++
			for i, nd := range nodes[2] {
				v := 1 + 0.3*float64(step%7)
				if err := nd.Update([]float64{v, v}); err != nil {
					if perm := nd.Err(); perm != nil {
						t.Errorf("storm node %d failed permanently: %v", i, perm)
						return
					}
				}
				// Kill every storm node's connection every few steps.
				if step%3 == i {
					before := nd.Reconnects()
					nd.DropConnection()
					deadline := time.Now().Add(10 * time.Second)
					for nd.Reconnects() <= before && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
				}
			}
		}
	}()

	chaosEst, chaosTraffic := runVictimSchedule(t, mc, 1, nodes[1], rounds)
	close(stop)
	<-stormDone

	// Estimates must match bit for bit, round for round.
	for r := 0; r < rounds; r++ {
		if math.Float64bits(chaosEst[r]) != math.Float64bits(soloEst[r]) {
			t.Errorf("round %d: estimate under chaos %v (bits %#x) != solo %v (bits %#x)",
				r+1, chaosEst[r], math.Float64bits(chaosEst[r]), soloEst[r], math.Float64bits(soloEst[r]))
		}
	}
	// And the victim's traffic must be untouched by the neighbor's storm.
	if chaosTraffic != soloTraffic {
		t.Errorf("victim traffic perturbed by neighboring chaos: chaos=%v solo=%v",
			chaosTraffic, soloTraffic)
	}
	// Sanity: the storm actually stormed.
	var reconnects int64
	for _, nd := range nodes[2] {
		reconnects += nd.Reconnects()
	}
	if reconnects == 0 {
		t.Fatal("storm group never lost a connection; isolation was not exercised")
	}
	if err := mc.Group(1).Err(); err != nil {
		t.Fatalf("victim group died: %v", err)
	}
}

// TestRegistrationDoesNotWaitForAResolution: a registration installs its
// connection and leaves a join for the group's dispatch loop, so a tenant
// whose resolution is parked in a silent node's pull holds up no other
// tenant's registration, however many rejoins it receives meanwhile. When
// every shared registration worker used to wait on the parked group, the
// other group's first node waited out the whole RequestTimeout. The rejoins
// of one node that land during the resolution are one join by the time the
// loop takes them: one full sync, not one each.
func TestRegistrationDoesNotWaitForAResolution(t *testing.T) {
	f := funcs.InnerProduct(1)
	x := []float64{1, 1}
	mc, err := ListenMulti("127.0.0.1:0", Options{RequestTimeout: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	a, err := mc.AddGroup(0, f, 2, core.Config{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.AddGroup(1, f, 1, core.Config{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*rawNode{dialRawNode(t, mc.Addr(), 0, x), dialRawNode(t, mc.Addr(), 1, x)}
	select {
	case <-a.Ready():
	case <-time.After(10 * time.Second):
		t.Fatalf("group 0 never became ready (err %v)", a.Err())
	}
	syncs := a.CoordStats().FullSyncs
	parkOnSilentNode(t, nodes[0], nodes[1], x)

	// One rejoin of node 0 per registration worker.
	for k := 0; k < registerWorkers; k++ {
		conn, err := net.Dial("tcp", mc.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := conn.Write(batchFrameOf(0, &core.Rejoin{NodeID: 0, X: x})); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	nd, err := DialNode(mc.Addr(), 0, f, x, Options{Group: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	select {
	case <-b.Ready():
	case <-time.After(time.Second):
		t.Fatalf("group 1's node waited %v to register behind group 0's resolution", time.Since(start))
	}

	// The parked pull times out and drops node 1; then node 0's rejoins run.
	waitFor(t, 10*time.Second, "group 0's resolution and rejoin", func() bool {
		return a.CoordStats().FullSyncs >= syncs+2
	})
	time.Sleep(200 * time.Millisecond) // room for any further rejoin syncs
	if st := a.CoordStats(); st.FullSyncs != syncs+2 || st.Rejoins != 1 {
		t.Fatalf("%d rejoins of node 0 ran %d rejoin transitions and %d full syncs after the violation's; want 1 and 1",
			registerWorkers, st.Rejoins, st.FullSyncs-syncs-1)
	}
	for _, c := range []*Coordinator{a, b} {
		if err := c.Err(); err != nil {
			t.Fatalf("group %d: %v", c.Group(), err)
		}
	}
}
