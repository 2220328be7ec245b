package core

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/linalg"
)

// budgetTestZone builds a node with the requested zone method installed
// around x0, plus a per-event reference node sharing the same function.
func budgetTestZone(t *testing.T, method Method, d int, eps float64) (elided, ref *Node, x0 []float64) {
	t.Helper()
	var f *Function
	var zone *SafeZone
	x0 = make([]float64, d)
	for i := range x0 {
		x0[i] = 0.1 + 0.05*float64(i%3)
	}
	switch method {
	case MethodX:
		f = benchCubic(d)
		// Generous spectral-norm bound for the cubic's Hessian on the small
		// walk region; overstating K only shrinks budgets.
		f.WithCurvature(60)
		grad := make([]float64, d)
		f0 := f.Grad(x0, grad)
		bLo, bHi := NeighborhoodBox(f, x0, 0.5, nil, nil)
		z, err := BuildZoneX(f, x0, f0-eps, f0+eps, bLo, bHi, DecompOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		zone = z
	case MethodE:
		f = benchBilinear(d)
		dec, err := DecomposeE(f, x0)
		if err != nil {
			t.Fatal(err)
		}
		f0 := f.Value(x0)
		zone = BuildZoneE(f, dec, x0, f0-eps, f0+eps)
	case MethodNone:
		f = benchCubic(d)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := range lo {
			lo[i], hi[i] = -1, 1
		}
		// Domain-only curvature: exercises the domain-box budget clamp.
		f.WithDomain(lo, hi).WithCurvature(60)
		f0 := f.Value(x0)
		zone = BuildZoneNone(f, x0, f0-eps, f0+eps)
	default:
		t.Fatalf("unsupported method %v", method)
	}
	elided = NewNode(0, f)
	ref = NewNode(1, f)
	elided.ApplySync(syncForZone(zone, 0.5, d))
	ref.ApplySync(syncForZone(zone, 0.5, d))
	if !elided.EnableElision() {
		t.Fatalf("EnableElision failed for %v", method)
	}
	return elided, ref, x0
}

// TestBudgetSoundnessRandomWalk drives the elided and per-event node pairs
// through identical random walks and demands bit-identical outcomes: every
// elided (skipped) event must be a non-violation on the reference node, and
// the first violation must land on the same event with the same kind.
func TestBudgetSoundnessRandomWalk(t *testing.T) {
	const d = 6
	for _, method := range []Method{MethodX, MethodE, MethodNone} {
		var totalSkipped, totalViolations int
		for seed := int64(0); seed < 8; seed++ {
			elided, ref, x0 := budgetTestZone(t, method, d, 0.4)
			rng := rand.New(rand.NewSource(seed))
			x := linalg.Clone(x0)
			step := make([]float64, d)
			for ev := 0; ev < 4000; ev++ {
				scale := 0.004
				if rng.Float64() < 0.01 {
					scale = 0.15 // occasional jump to force violations
				}
				var norm float64
				for i := range step {
					step[i] = rng.NormFloat64() * scale
					norm += step[i] * step[i]
				}
				norm = math.Sqrt(norm)
				linalg.Add(x, x, step)

				vRef := ref.UpdateData(x)
				var vEl *Violation
				if elided.SpendBudget(norm) {
					vEl = elided.UpdateDataRefresh(x)
				} else {
					totalSkipped++
				}
				if vEl == nil {
					if vRef != nil {
						t.Fatalf("%v seed %d event %d: elided path missed violation %v", method, seed, ev, vRef.Kind)
					}
					continue
				}
				if vRef == nil {
					t.Fatalf("%v seed %d event %d: elided path raised spurious violation %v", method, seed, ev, vEl.Kind)
				}
				if vEl.Kind != vRef.Kind {
					t.Fatalf("%v seed %d event %d: kinds differ (%v vs %v)", method, seed, ev, vEl.Kind, vRef.Kind)
				}
				totalViolations++
				break // first violation ends the zone's life, as in the protocol
			}
		}
		if totalSkipped == 0 {
			t.Fatalf("%v: elision never skipped a check — budget machinery inert", method)
		}
		if totalViolations == 0 {
			t.Fatalf("%v: no walk reached a violation — differential has no teeth", method)
		}
	}
}

// kindOf is v's kind, 0 for no violation.
func kindOf(v *Violation) ViolationKind {
	if v == nil {
		return 0
	}
	return v.Kind
}

// TestElidedSpendsDisplacement walks a node back and forth inside the ball
// its first check proved safe, then out of it. The walk's path length grows
// far past the radius while its displacement never reaches it, so
// UpdateElided, which spends displacement, must skip every event of the first
// phase and more events overall than a node spending path length; and on
// every event both must give the kind UpdateData gives.
func TestElidedSpendsDisplacement(t *testing.T) {
	const d = 6
	for _, method := range []Method{MethodX, MethodE, MethodNone} {
		elided, ref, x0 := budgetTestZone(t, method, d, 0.4)
		path, _, _ := budgetTestZone(t, method, d, 0.4)
		if v, skipped := elided.UpdateElided(x0); v != nil || skipped {
			t.Fatalf("%v: the first step must check x0 and pass, got (%v, skipped %v)", method, v, skipped)
		}
		rho := elided.el.radius
		if !elided.el.valid || !(rho > 0) {
			t.Fatalf("%v: no budget after a passing check (radius %v)", method, rho)
		}
		rng := rand.New(rand.NewSource(5))
		x, prev, dir := linalg.Clone(x0), linalg.Clone(x0), make([]float64, d)
		var walked float64
		var skipsDisp, skipsPath, violations int
		for ev := 0; ev < 2000; ev++ {
			for i := range dir {
				dir[i] = rng.NormFloat64()
			}
			if ev < 1000 {
				// Oscillate: a fresh point of the ball of radius 0.45ρ
				// around x0 on every event.
				linalg.AXPY(x, 0.45*rho*rng.Float64()/linalg.Norm2(dir), dir, x0)
			} else {
				// Drift out of the zone, with occasional jumps.
				scale := 0.004
				if rng.Float64() < 0.02 {
					scale = 0.15
				}
				linalg.AXPY(x, scale, dir, x)
			}
			step := math.Sqrt(linalg.SqDist(x, prev))
			walked += step
			copy(prev, x)

			want := kindOf(ref.UpdateData(x))
			vEl, skipped := elided.UpdateElided(x)
			if skipped {
				skipsDisp++
			} else if ev < 1000 {
				t.Fatalf("%v event %d: a point within 0.45ρ of the checked point was checked", method, ev)
			}
			var vPath *Violation
			if path.SpendBudget(step) {
				vPath = path.UpdateDataRefresh(x)
			} else {
				skipsPath++
			}
			if got := kindOf(vEl); got != want {
				t.Fatalf("%v event %d: UpdateElided gives %v, UpdateData %v", method, ev, got, want)
			}
			if got := kindOf(vPath); got != want {
				t.Fatalf("%v event %d: the path-length reference gives %v, UpdateData %v", method, ev, got, want)
			}
			if want != 0 {
				violations++
			}
		}
		if walked < 100*rho {
			t.Errorf("%v: the walk covered %.3g, want far more than ρ = %.3g", method, walked, rho)
		}
		if skipsDisp <= skipsPath {
			t.Errorf("%v: displacement skipped %d events, path length %d; want more", method, skipsDisp, skipsPath)
		}
		if violations == 0 {
			t.Errorf("%v: no event violated; the comparison has no teeth", method)
		}
		t.Logf("%v: ρ %.3g, path %.3g, skipped %d by displacement, %d by path length, %d violations",
			method, rho, walked, skipsDisp, skipsPath, violations)
	}
}

// TestCheckInvalidatesElidedBudget: a bare Check rebuilds n.v, the centre of
// the budget's ball, so the next UpdateElided must run the exact check even
// when its displacement from the old centre is in budget.
func TestCheckInvalidatesElidedBudget(t *testing.T) {
	const d = 6
	for _, method := range []Method{MethodX, MethodE, MethodNone} {
		elided, _, x0 := budgetTestZone(t, method, d, 0.4)
		if v, _ := elided.UpdateElided(x0); v != nil {
			t.Fatalf("%v: x0 must pass its own zone: %v", method, v)
		}
		near := linalg.Clone(x0)
		near[0] += 0.1 * elided.el.radius
		if v, skipped := elided.UpdateElided(near); v != nil || !skipped {
			t.Fatalf("%v: an in-budget move must be skipped, got (%v, skipped %v)", method, v, skipped)
		}
		if v := elided.Check(); v != nil {
			t.Fatalf("%v: %v", method, v)
		}
		if v, skipped := elided.UpdateElided(x0); v != nil || skipped {
			t.Fatalf("%v: the step after a Check must run the exact check, got (%v, skipped %v)", method, v, skipped)
		}
		if _, skipped := elided.UpdateElided(near); !skipped {
			t.Fatalf("%v: that check must refresh the budget", method)
		}
	}
}

// TestBudgetSpendGuards locks in the failure-to-safety contract of
// SpendBudget: NaN or negative norms invalidate the budget rather than
// extending it, and invalid budgets always demand exact checks.
func TestBudgetSpendGuards(t *testing.T) {
	elided, _, x0 := budgetTestZone(t, MethodE, 6, 0.4)
	if !elided.SpendBudget(0) {
		t.Fatal("fresh node (no refresh yet) must demand an exact check")
	}
	if v := elided.UpdateDataRefresh(x0); v != nil {
		t.Fatalf("x0 must pass its own zone: %v", v)
	}
	if elided.SpendBudget(0) {
		t.Fatal("zero spend against a fresh budget must not demand a check")
	}
	if !elided.SpendBudget(math.NaN()) {
		t.Fatal("NaN spend must demand an exact check")
	}
	if !elided.SpendBudget(0) {
		t.Fatal("budget must stay invalid after a NaN spend")
	}
	if v := elided.UpdateDataRefresh(x0); v != nil {
		t.Fatal(v)
	}
	if !elided.SpendBudget(-1) {
		t.Fatal("negative spend must demand an exact check")
	}
	if v := elided.UpdateDataRefresh(x0); v != nil {
		t.Fatal(v)
	}
	if !elided.SpendBudget(math.Inf(1)) {
		t.Fatal("infinite spend must exhaust any budget")
	}
}

// TestBudgetResetOnProtocolEvents verifies that every state change the
// budget was not derived from — raw SetData, a new zone, a slack rebalance —
// forces the next event onto the exact path.
func TestBudgetResetOnProtocolEvents(t *testing.T) {
	const d = 6
	elided, _, x0 := budgetTestZone(t, MethodE, d, 0.4)
	refresh := func() {
		if v := elided.UpdateDataRefresh(x0); v != nil {
			t.Fatal(v)
		}
		if elided.SpendBudget(0) {
			t.Fatal("expected a live budget after refresh")
		}
	}

	refresh()
	elided.SetData(x0)
	if !elided.SpendBudget(0) {
		t.Fatal("SetData must invalidate the budget")
	}

	refresh()
	zone := elided.Zone()
	elided.ApplySync(syncForZone(zone, 0.5, d))
	if !elided.SpendBudget(0) {
		t.Fatal("ApplySync must invalidate the budget")
	}

	refresh()
	elided.ApplySlack(&Slack{NodeID: 0, Slack: make([]float64, d)})
	if !elided.SpendBudget(0) {
		t.Fatal("ApplySlack must invalidate the budget")
	}
}

// TestEnableElisionRequiresCurvature: elision is licensed by a curvature
// bound — automatic for constant-Hessian functions, explicit otherwise.
func TestEnableElisionRequiresCurvature(t *testing.T) {
	cubic := benchCubic(4)
	n := NewNode(0, cubic)
	if n.EnableElision() {
		t.Fatal("non-constant Hessian with no WithCurvature must refuse elision")
	}
	if n.ElisionEnabled() {
		t.Fatal("failed EnableElision must leave elision off")
	}
	cubic.WithCurvature(10)
	if !n.EnableElision() {
		t.Fatal("explicit curvature bound must license elision")
	}

	bilinear := benchBilinear(4)
	k, domainOnly, ok := bilinear.CurvBound()
	if !ok || domainOnly {
		t.Fatalf("constant Hessian must give a global automatic bound (k=%v domainOnly=%v ok=%v)", k, domainOnly, ok)
	}
	// benchBilinear's Hessian is tridiagonal with unit off-diagonals:
	// Gershgorin gives 2.
	if math.Abs(k-2) > 1e-12 {
		t.Fatalf("bilinear Gershgorin bound = %v, want 2", k)
	}
	if !NewNode(0, bilinear).EnableElision() {
		t.Fatal("constant-Hessian function must enable elision automatically")
	}
}

func TestWithCurvatureRejectsBadBounds(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WithCurvature(%v) did not panic", bad)
				}
			}()
			benchBilinear(2).WithCurvature(bad)
		}()
	}
}

// TestSolveRadius pins the closed form: a·t + ½·b·t² ≤ c.
func TestSolveRadius(t *testing.T) {
	cases := []struct {
		a, b, c, want float64
	}{
		{2, 0, 1, 0.5},          // pure Lipschitz
		{0, 2, 1, 1},            // pure curvature: ½·2·t² = 1 ⇒ t = 1
		{1, 2, 4, 1.5615528128}, // (√(1+16)−1)/2
		{1, 1, 0, 0},            // no margin
		{1, 1, -3, 0},           // violated margin
		{0, 0, 1, math.Inf(1)},  // constraint cannot move
	}
	for _, tc := range cases {
		got := solveRadius(tc.a, tc.b, tc.c)
		if math.IsInf(tc.want, 1) {
			if !math.IsInf(got, 1) {
				t.Fatalf("solveRadius(%v,%v,%v) = %v, want +Inf", tc.a, tc.b, tc.c, got)
			}
			continue
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("solveRadius(%v,%v,%v) = %v, want %v", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
	if solveRadius(1, 0, math.NaN()) != 0 {
		t.Fatal("NaN margin must give zero radius")
	}
}

// TestSparseChurnElidesAfterFirstCheck churns two cells by +δ and back, the
// way a sketch moves one counter per row for an item that comes and goes.
// Each event walks 0.2ρ·√2, so a node spending path length runs out within
// a few events, while the displacement from the checked point never exceeds
// that one event's: UpdateSparse must skip every event after the first
// check. The churn then drifts out of the zone, and on every event the
// sparse step must give the kind UpdateData gives.
func TestSparseChurnElidesAfterFirstCheck(t *testing.T) {
	const d = 6
	idx := []int{1, 4}
	for _, method := range []Method{MethodX, MethodE, MethodNone} {
		elided, ref, x0 := budgetTestZone(t, method, d, 0.4)
		path, _, _ := budgetTestZone(t, method, d, 0.4)
		elided.SetData(x0)
		path.SetData(x0)
		if v, skipped := elided.UpdateSparse(idx, []float64{x0[1], x0[4]}); v != nil || skipped {
			t.Fatalf("%v: the first step must check x0 and pass, got (%v, skipped %v)", method, v, skipped)
		}
		rho := elided.el.radius
		if !elided.el.valid || !(rho > 0) {
			t.Fatalf("%v: no budget after a passing check (radius %v)", method, rho)
		}
		x := linalg.Clone(x0)
		vals := make([]float64, len(idx))
		var pathChecks, violations int
		for ev := 0; ev < 4000; ev++ {
			delta := 0.2 * rho
			if ev%2 == 1 {
				delta = -delta
			}
			if ev >= 2000 {
				delta += 0.002 // the drift phase
			}
			for k, i := range idx {
				x[i] += delta
				vals[k] = x[i]
			}
			want := kindOf(ref.UpdateData(x))
			vSp, skipped := elided.UpdateSparse(idx, vals)
			if !skipped && ev < 2000 {
				t.Fatalf("%v event %d: the churn was checked", method, ev)
			}
			if got := kindOf(vSp); got != want {
				t.Fatalf("%v event %d: UpdateSparse gives %v, UpdateData %v", method, ev, got, want)
			}
			if path.SpendBudget(math.Abs(delta) * math.Sqrt(float64(len(idx)))) {
				path.UpdateDataRefresh(x)
				if ev < 2000 {
					pathChecks++
				}
			}
			if want != 0 {
				violations++
			}
		}
		if pathChecks < 100 {
			t.Errorf("%v: the path-length rule checked the churn %d times; it must run out", method, pathChecks)
		}
		if violations == 0 {
			t.Errorf("%v: no event violated; the comparison has no teeth", method)
		}
	}
}

// TestSparseBoundCoversDisplacement walks a node through 10⁶ sparse steps,
// two cells each, that wander inside its ball and now and then jump out of
// it. Whenever the budget is valid, the bound the node carries, (ρ − budget)²,
// must cover the squared displacement from the checked point recomputed by
// linalg.CopyShiftSqDist. Without the rounding term the carried sum falls
// below it within the walk.
func TestSparseBoundCoversDisplacement(t *testing.T) {
	const d = 6
	elided, _, x0 := budgetTestZone(t, MethodE, d, 0.4)
	elided.SetData(x0)
	elided.Check()
	rng := rand.New(rand.NewSource(11))
	idx, vals, moved := make([]int, 2), make([]float64, 2), make([]float64, d)
	var skipped, checks int
	for ev := 0; ev < 1_000_000; ev++ {
		rho := elided.el.radius
		idx[0] = rng.Intn(d)
		idx[1] = (idx[0] + 1 + rng.Intn(d-1)) % d
		for k, i := range idx {
			scale := 0.15
			if rng.Float64() < 0.001 {
				scale = 3 // out of the ball: exhausts the budget
			}
			vals[k] = x0[i] + scale*rho*rng.NormFloat64()
		}
		if v, sk := elided.UpdateSparse(idx, vals); sk {
			skipped++
		} else if v == nil {
			checks++
		}
		if !elided.el.valid {
			continue
		}
		sigma := elided.el.radius - elided.el.budget
		if exact := linalg.CopyShiftSqDist(moved, elided.viol.X, elided.slack, elided.v); exact > sigma*sigma {
			t.Fatalf("event %d: carried bound %v below the displacement %v", ev, sigma*sigma, exact)
		}
	}
	if skipped < 500_000 || checks < 100 {
		t.Fatalf("the walk skipped %d and passed %d checks; it must do both often", skipped, checks)
	}
}
