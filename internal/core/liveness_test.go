package core

// Liveness invariants: dead nodes are excluded from the reference-point
// average, from lazy-sync balancing, and from message fan-out; the estimate
// degrades to the live-node average with Degraded() raised; rejoins restore
// the full population through a full sync that re-establishes Σᵢ sᵢ = 0 over
// the live set.

import (
	"math"
	"testing"

	"automon/internal/linalg"
)

// faultyComm simulates a fabric with failure detection: requests to nodes in
// the failed set return nil after marking the node dead, and messages to them
// are swallowed. It records which nodes were contacted.
type faultyComm struct {
	nodes  []*Node
	failed map[int]bool
	coord  *Coordinator // set after NewCoordinator

	requested map[int]int
	synced    map[int]int
	slacked   map[int]int
}

func newFaultyComm(nodes []*Node) *faultyComm {
	return &faultyComm{
		nodes:     nodes,
		failed:    map[int]bool{},
		requested: map[int]int{},
		synced:    map[int]int{},
		slacked:   map[int]int{},
	}
}

func (c *faultyComm) RequestData(id int) []float64 {
	c.requested[id]++
	if c.failed[id] {
		c.coord.MarkDead(id)
		return nil
	}
	return c.nodes[id].LocalVector()
}

func (c *faultyComm) SendSync(id int, m *Sync) {
	c.synced[id]++
	if !c.failed[id] {
		c.nodes[id].ApplySync(m)
	}
}

func (c *faultyComm) SendSlack(id int, m *Slack) {
	c.slacked[id]++
	if !c.failed[id] {
		c.nodes[id].ApplySlack(m)
	}
}

// liveCluster builds n nodes over the saddle function with the given initial
// vectors, plus a coordinator wired through a faultyComm.
func liveCluster(t *testing.T, initial [][]float64, cfg Config) (*Coordinator, []*Node, *faultyComm) {
	t.Helper()
	f := saddleFunc()
	nodes := make([]*Node, len(initial))
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData(initial[i])
	}
	comm := newFaultyComm(nodes)
	coord := NewCoordinator(f, len(nodes), cfg, comm)
	comm.coord = coord
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	return coord, nodes, comm
}

// liveMean computes the mean of the live nodes' vectors.
func liveMean(coord *Coordinator, nodes []*Node) []float64 {
	var vecs [][]float64
	for i, nd := range nodes {
		if coord.Live(i) {
			vecs = append(vecs, nd.LocalVector())
		}
	}
	mean := make([]float64, len(nodes[0].LocalVector()))
	linalg.Mean(mean, vecs...)
	return mean
}

// slackSumOverLive asserts Σᵢ sᵢ = 0 over the live set (coordinator's view).
func slackSumOverLive(t *testing.T, coord *Coordinator) {
	t.Helper()
	sum := make([]float64, coord.F.Dim())
	for i := 0; i < coord.N; i++ {
		if coord.Live(i) {
			linalg.Add(sum, sum, coord.own.slacks[i])
		}
	}
	for j, v := range sum {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("live slack sum ≠ 0: component %d = %v", j, v)
		}
	}
}

func TestDepartureDegradesEstimateToLiveAverage(t *testing.T) {
	initial := [][]float64{{1, 0}, {0, 1}, {0, 2}}
	coord, nodes, comm := liveCluster(t, initial, Config{Epsilon: 0.1})
	f := coord.F

	if coord.Degraded() {
		t.Fatal("fresh cluster reports Degraded")
	}
	full := []float64{1.0 / 3, 1}
	if got := coord.Estimate(); math.Abs(got-f.Value(full)) > 1e-9 {
		t.Fatalf("initial estimate %v, want f(x̄)=%v", got, f.Value(full))
	}

	comm.failed[2] = true
	if err := coord.HandleDeparture(2); err != nil {
		t.Fatal(err)
	}
	if !coord.Degraded() || coord.LiveCount() != 2 || coord.Live(2) {
		t.Fatalf("after departure: degraded=%v live=%d", coord.Degraded(), coord.LiveCount())
	}
	want := f.Value(liveMean(coord, nodes))
	if got := coord.Estimate(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("degraded estimate %v, want live-node value %v", got, want)
	}
	slackSumOverLive(t, coord)
	if coord.Stats().NodeDeaths != 1 {
		t.Fatalf("NodeDeaths = %d, want 1", coord.Stats().NodeDeaths)
	}
	// The dead node must hold no slack in the coordinator's book-keeping.
	for j, v := range coord.own.slacks[2] {
		if v != 0 {
			t.Fatalf("dead node retains slack: component %d = %v", j, v)
		}
	}
}

func TestRejoinRestoresFullPopulation(t *testing.T) {
	initial := [][]float64{{1, 0}, {0, 1}, {0, 2}}
	coord, nodes, comm := liveCluster(t, initial, Config{Epsilon: 0.1})
	f := coord.F

	comm.failed[2] = true
	if err := coord.HandleDeparture(2); err != nil {
		t.Fatal(err)
	}

	// A rejoin carrying a vector of another dimension is refused before any
	// state changes: the node stays dead and no sync runs.
	comm.failed[2] = false
	est, syncs := coord.Estimate(), coord.Stats().FullSyncs
	for _, x := range [][]float64{{2}, {2, 2, 2, 2, 2}} {
		if err := coord.HandleRejoin([]int{2}, [][]float64{x}); err == nil {
			t.Fatalf("rejoin with %d values accepted by a d=2 machine", len(x))
		}
	}
	if coord.LiveCount() != 2 || coord.Stats().Rejoins != 0 || coord.Stats().FullSyncs != syncs || coord.Estimate() != est {
		t.Fatalf("refused rejoins changed state: live=%d rejoins=%d full syncs %d→%d estimate %v→%v",
			coord.LiveCount(), coord.Stats().Rejoins, syncs, coord.Stats().FullSyncs, est, coord.Estimate())
	}

	// The node comes back with a fresh vector.
	nodes[2].SetData([]float64{2, 2})
	if err := coord.HandleRejoin([]int{2}, [][]float64{{2, 2}}); err != nil {
		t.Fatal(err)
	}
	if coord.Degraded() || coord.LiveCount() != 3 {
		t.Fatalf("after rejoin: degraded=%v live=%d", coord.Degraded(), coord.LiveCount())
	}
	want := f.Value(liveMean(coord, nodes))
	if got := coord.Estimate(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("restored estimate %v, want %v", got, want)
	}
	slackSumOverLive(t, coord)
	if coord.Stats().Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", coord.Stats().Rejoins)
	}
}

func TestViolationFromDeadNodeRevivesIt(t *testing.T) {
	initial := [][]float64{{1, 0}, {0, 1}, {0, 2}}
	coord, nodes, comm := liveCluster(t, initial, Config{Epsilon: 0.1})

	comm.failed[1] = true
	if err := coord.HandleDeparture(1); err != nil {
		t.Fatal(err)
	}
	// The "dead" node speaks again: a false suspicion. Its violation revives
	// it through a full sync.
	comm.failed[1] = false
	nodes[1].SetData([]float64{3, 3})
	syncsBefore := coord.Stats().FullSyncs
	err := coord.HandleViolation(&Violation{NodeID: 1, Kind: ViolationSafeZone, X: []float64{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !coord.Live(1) || coord.Degraded() {
		t.Fatal("violation from a dead node must revive it")
	}
	if coord.Stats().FullSyncs != syncsBefore+1 {
		t.Fatal("revival must resolve through a full sync (slack invariant)")
	}
	if coord.Stats().Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", coord.Stats().Rejoins)
	}
	slackSumOverLive(t, coord)
}

func TestLazySyncExcludesDeadNodes(t *testing.T) {
	// Four nodes so the |set| ≤ liveCount/2 bound leaves room to balance
	// after one death.
	initial := [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	coord, nodes, comm := liveCluster(t, initial, Config{Epsilon: 0.5})

	comm.failed[3] = true
	if err := coord.HandleDeparture(3); err != nil {
		t.Fatal(err)
	}
	comm.requested = map[int]int{}
	comm.synced = map[int]int{}
	comm.slacked = map[int]int{}

	// Drive safe-zone violations from node 0; resolutions must never touch
	// the dead node 3.
	for step := 1; step <= 6; step++ {
		x := []float64{0, 0.4 * float64(step)}
		nodes[0].SetData(x)
		if v := nodes[0].Check(); v != nil {
			if err := coord.HandleViolation(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := comm.requested[3] + comm.synced[3] + comm.slacked[3]; n != 0 {
		t.Fatalf("dead node contacted %d times during resolutions", n)
	}
	slackSumOverLive(t, coord)
}

func TestAllNodesDeadFreezesEstimate(t *testing.T) {
	initial := [][]float64{{1, 0}, {0, 1}}
	coord, nodes, comm := liveCluster(t, initial, Config{Epsilon: 0.1})

	comm.failed[0] = true
	if err := coord.HandleDeparture(0); err != nil {
		t.Fatal(err)
	}
	before := coord.Estimate() // f over node 1, the last live node
	comm.failed[1] = true
	if err := coord.HandleDeparture(1); err != ErrNoLiveNodes {
		t.Fatalf("last departure: err=%v, want ErrNoLiveNodes", err)
	}
	if coord.LiveCount() != 0 || !coord.Degraded() {
		t.Fatalf("live=%d degraded=%v", coord.LiveCount(), coord.Degraded())
	}
	// The estimate freezes at its last value instead of becoming NaN/0.
	if got := coord.Estimate(); got != before {
		t.Fatalf("estimate moved with no live nodes: %v → %v", before, got)
	}

	// The first rejoin repairs the cluster.
	comm.failed[0] = false
	nodes[0].SetData([]float64{2, 0})
	if err := coord.HandleRejoin([]int{0}, [][]float64{{2, 0}}); err != nil {
		t.Fatal(err)
	}
	if coord.LiveCount() != 1 {
		t.Fatalf("live=%d after rejoin, want 1", coord.LiveCount())
	}
	want := coord.F.Value([]float64{2, 0})
	if got := coord.Estimate(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("estimate %v after solo rejoin, want %v", got, want)
	}
}

func TestRequestFailureDuringFullSyncMarksDead(t *testing.T) {
	initial := [][]float64{{1, 0}, {0, 1}, {0, 2}}
	coord, nodes, comm := liveCluster(t, initial, Config{Epsilon: 0.1})
	f := coord.F

	// Node 2 stops answering; the next full sync must degrade around it
	// rather than fail.
	comm.failed[2] = true
	if err := coord.Resync(); err != nil {
		t.Fatal(err)
	}
	if coord.Live(2) || coord.LiveCount() != 2 {
		t.Fatalf("silent node not marked dead: live=%d", coord.LiveCount())
	}
	want := f.Value(liveMean(coord, nodes))
	if got := coord.Estimate(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("estimate %v, want live average %v", got, want)
	}
	slackSumOverLive(t, coord)
}

// pullCounter is the in-process fabric, counting the pulls each node gets.
type pullCounter struct {
	Fabric
	pulls []int
}

func (c *pullCounter) RequestData(id int) []float64 {
	c.pulls[id]++
	return c.Fabric.RequestData(id)
}

// TestInitPullsEachNodeOnce: the first full sync's gather is Init's only
// pull, so each live node answers exactly one DataRequest.
func TestInitPullsEachNodeOnce(t *testing.T) {
	const n, d = 4, 6
	f := benchBilinear(d)
	comm := &pullCounter{pulls: make([]int, n)}
	for i := 0; i < n; i++ {
		nd := NewNode(i, f)
		x := make([]float64, d)
		for j := range x {
			x[j] = 0.1 * float64(i+j)
		}
		nd.SetData(x)
		comm.Nodes = append(comm.Nodes, nd)
	}
	if err := NewCoordinator(f, n, Config{Epsilon: 0.1}, comm).Init(); err != nil {
		t.Fatal(err)
	}
	for i, p := range comm.pulls {
		if p != 1 {
			t.Errorf("node %d was pulled %d times by Init, want 1", i, p)
		}
	}
}
