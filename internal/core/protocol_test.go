package core

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/linalg"
)

// saddleFunc is the §4.6 ablation function f(x) = −x1² + x2².
func saddleFunc() *Function {
	return NewFunction("saddle", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Add(b.Neg(b.Square(x[0])), b.Square(x[1]))
	})
}

// countingComm is the shared Fabric with coordinator-side message counts.
type countingComm struct {
	Fabric
	requests, syncs, slacks int
}

func newCountingComm(nodes []*Node) *countingComm {
	c := &countingComm{Fabric: Fabric{Nodes: nodes}}
	c.OnMessage = func(m Message) {
		switch m.(type) {
		case *DataRequest:
			c.requests++
		case *Sync:
			c.syncs++
		case *Slack:
			c.slacks++
		}
	}
	return c
}

// runProtocol drives a full in-memory monitoring run and returns the maximum
// estimate error observed across rounds.
func runProtocol(t *testing.T, f *Function, data TuningData, cfg Config) (maxErr float64, coord *Coordinator, comm *countingComm) {
	t.Helper()
	return runProtocolWith(t, f, data, cfg, func(*Coordinator) {})
}

// runProtocolWith is runProtocol with a hook that adjusts the coordinator's
// unexported state before its first sync.
func runProtocolWith(t *testing.T, f *Function, data TuningData, cfg Config, prepare func(*Coordinator)) (maxErr float64, coord *Coordinator, comm *countingComm) {
	t.Helper()
	n := len(data[0])
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData(data[0][i])
	}
	comm = newCountingComm(nodes)
	coord = NewCoordinator(f, n, cfg, comm)
	prepare(coord)
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	avg := make([]float64, f.Dim())
	for _, round := range data[1:] {
		for i, x := range round {
			if v := nodes[i].UpdateData(x); v != nil {
				if err := coord.HandleViolation(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = nodes[i].LocalVector()
		}
		linalg.Mean(avg, vecs...)
		e := math.Abs(coord.Estimate() - f.Value(avg))
		if e > maxErr {
			maxErr = e
		}
	}
	return maxErr, coord, comm
}

// driftData builds a dataset where node i's vector random-walks from start
// toward target over the given number of rounds.
func driftData(rng *rand.Rand, rounds int, starts, targets [][]float64, noise float64) TuningData {
	n := len(starts)
	d := len(starts[0])
	data := make(TuningData, rounds)
	for r := 0; r < rounds; r++ {
		frac := float64(r) / float64(rounds-1)
		data[r] = make([][]float64, n)
		for i := 0; i < n; i++ {
			v := make([]float64, d)
			for j := 0; j < d; j++ {
				v[j] = starts[i][j] + frac*(targets[i][j]-starts[i][j]) + rng.NormFloat64()*noise
			}
			data[r][i] = v
		}
	}
	return data
}

func TestProtocolGuaranteesErrorBoundConstantHessian(t *testing.T) {
	// f = −x1²+x2² has a constant Hessian ⇒ ADCD-E ⇒ deterministic
	// guarantee: the estimate error never exceeds ε while the protocol runs.
	rng := rand.New(rand.NewSource(5))
	f := saddleFunc()
	starts := [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	targets := [][]float64{{1, 0}, {-1, 0}, {1, 1}, {1, -1}}
	data := driftData(rng, 300, starts, targets, 0.01)

	maxErr, coord, _ := runProtocol(t, f, data, Config{Epsilon: 0.1})
	if coord.Method() != MethodE {
		t.Fatalf("method = %v, want ADCD-E", coord.Method())
	}
	if maxErr > 0.1+1e-9 {
		t.Fatalf("ADCD-E error bound violated: max error %v > ε 0.1", maxErr)
	}
	if coord.Stats().FaultyViolations != 0 {
		t.Fatalf("faulty violations reported for exact decomposition: %d", coord.Stats().FaultyViolations)
	}
}

func TestProtocolNoADCDMissesViolations(t *testing.T) {
	// The §4.6 ablation: with the (non-convex) admissible region as local
	// constraint and slack balancing active, missed violations accumulate
	// unbounded error on the saddle function as node data drifts apart.
	// Nodes 2 and 3 move along the zero-level set of f (the diagonals
	// y = ±x), so every local value stays ≈ 0 and no admissible-region
	// constraint ever fires — yet the true average drifts to (0.5, 0) where
	// f = −0.25. A convex ADCD safe zone catches the drift; the raw
	// admissible region cannot.
	rng := rand.New(rand.NewSource(5))
	f := saddleFunc()
	starts := [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	targets := [][]float64{{0, 0}, {0, 0}, {1, 1}, {1, -1}}
	data := driftData(rng, 400, starts, targets, 0.002)

	const eps = 0.02 // the paper's Figure 9(a) bound
	errADCD, _, commADCD := runProtocol(t, f, data, Config{Epsilon: eps})
	errNone, _, commNone := runProtocol(t, f, data, Config{Epsilon: eps, DisableADCD: true})

	if errNone <= 2*eps {
		t.Fatalf("no-ADCD run unexpectedly kept the bound: max error %v", errNone)
	}
	if errADCD > eps+1e-9 {
		t.Fatalf("AutoMon run broke the bound: %v", errADCD)
	}
	// The failure mode is silent: few messages, wrong answer.
	totalADCD := commADCD.requests + commADCD.syncs + commADCD.slacks
	totalNone := commNone.requests + commNone.syncs + commNone.slacks
	if totalNone > totalADCD*3 {
		t.Fatalf("no-ADCD should fail silently, but sent %d msgs vs AutoMon %d", totalNone, totalADCD)
	}
}

func TestLazySyncResolvesOppositeDrift(t *testing.T) {
	// Two nodes drifting in exactly opposite directions keep the average
	// constant: lazy sync must absorb the violations without a second full
	// sync.
	f := saddleFunc()
	n := 4
	data := make(TuningData, 100)
	for r := range data {
		shift := float64(r) * 0.02
		data[r] = [][]float64{
			{0.5 + shift, 0.5},
			{0.5 - shift, 0.5},
			{0.5, 0.5},
			{0.5, 0.5},
		}
	}
	_, coord, comm := runProtocol(t, f, data, Config{Epsilon: 0.3})
	if coord.Stats().LazyResolved == 0 {
		t.Fatal("expected at least one lazy-sync resolution")
	}
	if coord.Stats().FullSyncs > 3 {
		t.Fatalf("too many full syncs (%d) for balanced drift", coord.Stats().FullSyncs)
	}
	_ = n
	_ = comm
}

func TestSlackSumsToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := saddleFunc()
	starts := [][]float64{{0.2, 0.2}, {0.1, -0.1}, {-0.2, 0.3}, {0, 0}}
	targets := [][]float64{{0.8, 0.1}, {-0.5, -0.4}, {0.2, 0.9}, {-0.1, -0.6}}
	data := driftData(rng, 150, starts, targets, 0.02)

	n := len(starts)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData(data[0][i])
	}
	coord := NewCoordinator(f, n, Config{Epsilon: 0.2}, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	checkSum := func(when string) {
		sum := make([]float64, f.Dim())
		for i := 0; i < n; i++ {
			linalg.Add(sum, sum, coord.own.slacks[i])
		}
		if linalg.Norm2(sum) > 1e-9 {
			t.Fatalf("%s: slack sum = %v, want 0 (invariant Σsᵢ = 0)", when, sum)
		}
	}
	checkSum("after init")
	for r, round := range data[1:] {
		for i, x := range round {
			if v := nodes[i].UpdateData(x); v != nil {
				if err := coord.HandleViolation(v); err != nil {
					t.Fatal(err)
				}
				checkSum("after violation handling")
			}
		}
		_ = r
	}
}

func TestDisableSlackDisablesLazySync(t *testing.T) {
	f := saddleFunc()
	c := NewCoordinator(f, 4, Config{Epsilon: 0.1, DisableSlack: true}, &Fabric{})
	if !c.Cfg.DisableLazySync {
		t.Fatal("DisableSlack must imply DisableLazySync")
	}
}

func TestThresholds(t *testing.T) {
	f := saddleFunc()
	c := NewCoordinator(f, 2, Config{Epsilon: 0.5}, &Fabric{})
	if l, u := c.Thresholds(2); l != 1.5 || u != 2.5 {
		t.Fatalf("additive thresholds = (%v, %v)", l, u)
	}
	c = NewCoordinator(f, 2, Config{Epsilon: 0.1, ErrorType: Multiplicative}, &Fabric{})
	if l, u := c.Thresholds(10); math.Abs(l-9) > 1e-12 || math.Abs(u-11) > 1e-12 {
		t.Fatalf("multiplicative thresholds = (%v, %v)", l, u)
	}
	// Negative reference value: bounds must stay ordered.
	if l, u := c.Thresholds(-10); math.Abs(l+11) > 1e-12 || math.Abs(u+9) > 1e-12 {
		t.Fatalf("negative multiplicative thresholds = (%v, %v)", l, u)
	}
}

func TestSanityCheckCatchesFaultyConstraints(t *testing.T) {
	// Fault injection for §3.7: hand a node a zone whose curvature bound is
	// far too small (pretending the optimizer badly under-estimated the
	// extreme eigenvalue). With f = sin, x0 = π/2, Lam = 0 the "safe zone"
	// degenerates to the whole neighborhood, which spills far outside the
	// admissible region; the node must flag ViolationFaulty, never stay
	// silent.
	f := sineFunc()
	x0 := []float64{math.Pi / 2}
	grad := make([]float64, 1)
	f0 := f.Grad(x0, grad)
	node := NewNode(0, f)
	node.ApplySync(&Sync{
		NodeID: 0, Method: MethodX, Kind: ConvexDiff,
		X0: x0, F0: f0, GradF0: grad,
		L: 0.8, U: 1.2, Lam: 0, R: 2, Slack: []float64{0},
	})
	v := []float64{0.1} // sin(0.1) ≈ 0.0998, far below L = 0.8
	nodeZone := node.Zone()
	if !nodeZone.InNeighborhood(v) || !nodeZone.Contains(f, v) {
		t.Fatal("test setup broken: point should be inside the faulty zone")
	}
	viol := node.UpdateData(v)
	if viol == nil {
		t.Fatalf("faulty constraints at %v went unreported", v)
	}
	if viol.Kind != ViolationFaulty {
		t.Fatalf("violation kind = %v, want faulty", viol.Kind)
	}
}

func TestFaultyViolationTriggersFullSync(t *testing.T) {
	f := saddleFunc()
	n := 3
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0, 0})
	}
	comm := newCountingComm(nodes)
	coord := NewCoordinator(f, n, Config{Epsilon: 0.1}, comm)
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	before := coord.Stats().FullSyncs
	err := coord.HandleViolation(&Violation{NodeID: 1, Kind: ViolationFaulty, X: []float64{0.1, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Stats().FullSyncs != before+1 {
		t.Fatal("faulty violation must force a full sync")
	}
}

func TestRDoublingHeuristic(t *testing.T) {
	f := rosenbrockFunc()
	n := 2
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0, 0})
	}
	cfg := Config{Epsilon: 5, R: 0.01, RDoubleAfter: 3, Decomp: DecompOptions{Seed: 1}}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	r0 := coord.R()
	for k := 0; k < 3; k++ {
		err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if coord.R() != 2*r0 {
		t.Fatalf("r = %v after 3 consecutive neighborhood violations, want %v", coord.R(), 2*r0)
	}
	if coord.Stats().RDoublings != 1 {
		t.Fatalf("RDoublings = %d, want 1", coord.Stats().RDoublings)
	}
	// A safe-zone violation must reset the streak.
	err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationSafeZone, X: []float64{0.01, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if coord.consecNeigh != 0 {
		t.Fatal("safe-zone violation must reset the neighborhood streak")
	}
}

func TestMultiplicativeMonitoringEndToEnd(t *testing.T) {
	// §2's multiplicative approximation: L, U = (1 ∓ ε)·f(x0). Monitor
	// ‖x̄‖² (guaranteed, ADCD-E) while the signal doubles; the relative
	// error must stay within ε on every round.
	f := NewFunction("sqnorm", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Add(b.Square(x[0]), b.Square(x[1]))
	})
	n := 3
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{1, 1})
	}
	eps := 0.1
	coord := NewCoordinator(f, n, Config{Epsilon: eps, ErrorType: Multiplicative}, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 60; step++ {
		v := 1 + 0.01*float64(step)
		for i := range nodes {
			if viol := nodes[i].UpdateData([]float64{v, v}); viol != nil {
				if err := coord.HandleViolation(viol); err != nil {
					t.Fatal(err)
				}
			}
		}
		truth := 2 * v * v
		rel := math.Abs(coord.Estimate()-truth) / truth
		if rel > eps+1e-9 {
			t.Fatalf("step %d: relative error %v above multiplicative bound %v", step, rel, eps)
		}
	}
}

func TestEstimateBeforeInitIsNaN(t *testing.T) {
	f := saddleFunc()
	c := NewCoordinator(f, 2, Config{Epsilon: 0.1}, &Fabric{})
	if !math.IsNaN(c.Estimate()) {
		t.Fatal("estimate before init should be NaN")
	}
}

func TestNodeSilentBeforeSync(t *testing.T) {
	f := saddleFunc()
	node := NewNode(0, f)
	if v := node.UpdateData([]float64{100, 100}); v != nil {
		t.Fatal("node must be silent before the first sync")
	}
	if node.CurrentValue() != 0 {
		t.Fatal("CurrentValue before sync should be 0")
	}
}

func TestADCDXOnRosenbrockKeepsErrorNearBound(t *testing.T) {
	// Rosenbrock with N(0, 0.2²) data, as in §3.6. ADCD-X has no absolute
	// guarantee, but with the sanity check the observed error should stay
	// close to ε.
	rng := rand.New(rand.NewSource(77))
	f := rosenbrockFunc()
	n := 4
	rounds := 150
	data := make(TuningData, rounds)
	for r := range data {
		data[r] = make([][]float64, n)
		for i := 0; i < n; i++ {
			data[r][i] = []float64{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2}
		}
	}
	eps := 0.5
	maxErr, coord, _ := runProtocol(t, f, data, Config{Epsilon: eps, R: 0.4, Decomp: DecompOptions{Seed: 3}})
	if coord.Method() != MethodX {
		t.Fatalf("method = %v, want ADCD-X", coord.Method())
	}
	if maxErr > 2*eps {
		t.Fatalf("ADCD-X error %v far above bound %v", maxErr, eps)
	}
}

// TestApplySyncRefusesUncheckableSyncs feeds a node the syncs a faulty or
// hostile coordinator link can produce. Each used to install a zone whose
// next Check panicked inside the quadratic form; now the node refuses them,
// keeps the zone it had, and goes on checking against it.
func TestApplySyncRefusesUncheckableSyncs(t *testing.T) {
	f := saddleFunc() // H = diag(−2, 2): convex kind, H⁻ of rank 1
	x0 := []float64{0.1, 0.2}
	dec, err := DecomposeE(f, x0)
	if err != nil {
		t.Fatal(err)
	}
	f0 := f.Value(x0)
	zone := BuildZoneE(f, dec, x0, f0-1, f0+1)
	good := func() *Sync {
		m := syncForZone(zone, 0, 2)
		m.Matrix = &linalg.EigFactor{Lam: linalg.Clone(dec.H.Lam), V: dec.H.V.Clone()}
		return m
	}
	bad := map[string]func(*Sync){
		"no factor yet":         func(m *Sync) { m.WithMatrix, m.Matrix = false, nil },
		"flag without factor":   func(m *Sync) { m.Matrix = nil },
		"factor of another dim": func(m *Sync) { m.Matrix = &linalg.EigFactor{Lam: []float64{-2}, V: linalg.NewMat(1, 3)} },
		"rank above dim":        func(m *Sync) { m.Matrix = &linalg.EigFactor{Lam: make([]float64, 3), V: linalg.NewMat(3, 2)} },
		"Lam shorter than V":    func(m *Sync) { m.Matrix.Lam = nil },
		"NaN eigenvalue":        func(m *Sync) { m.Matrix.Lam[0] = math.NaN() },
		"Inf eigenvector":       func(m *Sync) { m.Matrix.V.Data[1] = math.Inf(-1) },
		"X0 of another dim":     func(m *Sync) { m.X0 = []float64{1, 2, 3} },
		"GradF0 of another dim": func(m *Sync) { m.GradF0 = []float64{1} },
	}
	for name, breakIt := range bad {
		// On a fresh node the refused sync must leave it silent, not armed.
		fresh := NewNode(0, f)
		m := good()
		breakIt(m)
		if fresh.ApplySync(m) {
			t.Errorf("%s: installed on a fresh node", name)
		}
		if fresh.Zone() != nil || fresh.UpdateData([]float64{9, 9}) != nil {
			t.Errorf("%s: fresh node armed by a refused sync", name)
		}
		if name == "no factor yet" {
			continue // legitimate once the node holds the factor
		}
		// On a synced node the previous zone and slack stay in force.
		node := NewNode(0, f)
		if !node.ApplySync(good()) {
			t.Fatal("well-formed sync refused")
		}
		before := node.Zone()
		m = good()
		m.Slack = []float64{5, 5}
		breakIt(m)
		if node.ApplySync(m) {
			t.Errorf("%s: installed over a good zone", name)
		}
		if node.Zone() != before {
			t.Errorf("%s: previous zone replaced", name)
		}
		if v := node.UpdateData(x0); v != nil {
			t.Errorf("%s: x0 violates the kept zone (slack overwritten?): %+v", name, v)
		}
	}
	// The factor rides only the first sync: a later one without it reuses
	// the node's copy.
	node := NewNode(0, f)
	later := good()
	later.WithMatrix, later.Matrix = false, nil
	if !node.ApplySync(good()) || !node.ApplySync(later) || node.Zone().H == nil {
		t.Fatal("sync without factor refused by a node that holds one")
	}
}
