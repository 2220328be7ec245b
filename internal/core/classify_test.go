package core

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/linalg"
)

// The reference below is the node check as it was written before one
// evaluation of f served every constraint: InNeighborhood, then a
// ContainsScratch that evaluates f itself, then a second evaluation of f for
// the §3.7 sanity check, and a budget refresh that evaluates f a third time
// through Grad. SafeZone.classify and Node.checkRefresh must agree with it
// bit for bit.

// admissible is the §3.7 sanity check L ≤ f(v) ≤ U on its own evaluation.
func admissible(z *SafeZone, f *Function, v []float64) bool {
	fv := f.Value(v)
	return z.L <= fv && fv <= z.U
}

// refKind is Check's three-case switch over the three separate tests.
func refKind(z *SafeZone, f *Function, v, diff []float64) ViolationKind {
	switch {
	case !z.InNeighborhood(v):
		return ViolationNeighborhood
	case !refContains(z, f, v, diff):
		return ViolationSafeZone
	case z.Method != MethodNone && !admissible(z, f, v):
		return ViolationFaulty
	}
	return 0
}

// refContains is ContainsScratch evaluating f inside the constraint helper.
func refContains(z *SafeZone, f *Function, v, diff []float64) bool {
	if z.Custom != nil {
		return z.Custom(f, v)
	}
	switch z.Method {
	case MethodNone:
		return admissible(z, f, v)
	case MethodX:
		return refContainsWithQuadratic(z, f, v, 0.5*z.Lam*linalg.SqDist(v, z.X0))
	case MethodE:
		if len(diff) != len(v) {
			diff = make([]float64, len(v))
		}
		linalg.Sub(diff, v, z.X0)
		q := 0.5 * z.H.QuadForm(diff)
		if z.Kind == ConvexDiff {
			q = -q
		}
		return refContainsWithQuadratic(z, f, v, q)
	}
	return false
}

func refContainsWithQuadratic(z *SafeZone, f *Function, v []float64, q float64) bool {
	fv := f.Value(v)
	lin := z.F0
	for i := range v {
		lin += z.GradF0[i] * (v[i] - z.X0[i])
	}
	if z.Kind == ConvexDiff {
		return !(fv+q > z.U) && !(q > lin-z.L)
	}
	return !(-q < lin-z.U) && !(fv-q < z.L)
}

// refRefreshBudget is the budget refresh that recomputes v = x + s and runs
// its own Grad, called after a passing Check.
func refRefreshBudget(n *Node) {
	e := &n.el
	if !e.enabled || !n.haveZone {
		return
	}
	z := &n.zone
	if z.Custom != nil || z.Method == MethodCustom {
		e.valid, e.budget = false, 0
		return
	}
	v := make([]float64, len(n.v))
	linalg.Add(v, n.viol.X, n.slack)
	grad := make([]float64, len(v))
	fv := n.F.Grad(v, grad)
	gnorm := linalg.Norm2(grad)
	k := e.curv
	budget := math.Min(solveRadius(gnorm, k, z.U-fv), solveRadius(gnorm, k, fv-z.L))
	if z.Method == MethodX || z.Method == MethodE {
		dist := math.Sqrt(linalg.SqDist(v, z.X0))
		gn0 := linalg.Norm2(z.GradF0)
		lin := z.F0
		for i := range v {
			lin += z.GradF0[i] * (v[i] - z.X0[i])
		}
		qb := z.Lam
		if z.Method == MethodE {
			qb = z.H.Norm2()
		}
		qa := qb * dist
		q := 0.5 * qb * dist * dist
		if z.Kind == ConvexDiff {
			budget = math.Min(budget, solveRadius(gnorm+qa, k+qb, z.U-fv-q))
			budget = math.Min(budget, solveRadius(gn0+qa, qb, lin-z.L-q))
		} else {
			budget = math.Min(budget, solveRadius(gn0+qa, qb, z.U-lin-q))
			budget = math.Min(budget, solveRadius(gnorm+qa, k+qb, fv-q-z.L))
		}
	}
	if len(z.BLo) > 0 {
		budget = math.Min(budget, boxMargin(v, z.BLo, z.BHi))
	} else if e.domainOnly {
		budget = math.Min(budget, boxMargin(v, n.F.DomainLo, n.F.DomainHi))
	}
	budget *= budgetSafety
	if !(budget >= 0) {
		e.valid, e.budget = false, 0
		return
	}
	e.valid, e.budget = true, budget
}

// zoneCase is a zone with the function it was built for.
type zoneCase struct {
	f *Function
	z *SafeZone
}

// classifyZones is one zone of every shape the check distinguishes: the
// no-ADCD ablation, ADCD-X and ADCD-E in both DC kinds, and a hand-crafted
// zone with and without a neighborhood box.
func classifyZones(t *testing.T) map[string]zoneCase {
	t.Helper()
	const d = 4
	x0 := []float64{0.1, 0.15, 0.2, 0.1}
	zones := map[string]zoneCase{}
	add := func(name string, f *Function, z *SafeZone) {
		zones[name] = zoneCase{f, z}
		flipped := *z
		flipped.Kind = 1 - z.Kind
		zones[name+"/flipped-kind"] = zoneCase{f, &flipped}
	}

	cubic := benchCubic(d)
	f0 := cubic.Value(x0)
	add("none", cubic, BuildZoneNone(cubic, x0, f0-0.3, f0+0.3))

	grad := make([]float64, d)
	f0 = cubic.Grad(x0, grad)
	bLo, bHi := NeighborhoodBox(cubic, x0, 0.5, nil, nil)
	zx, err := BuildZoneX(cubic, x0, f0-0.3, f0+0.3, bLo, bHi, DecompOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	add("X", cubic, zx)

	bilinear := benchBilinear(d)
	dec, err := DecomposeE(bilinear, x0)
	if err != nil {
		t.Fatal(err)
	}
	f0 = bilinear.Value(x0)
	add("E", bilinear, BuildZoneE(bilinear, dec, x0, f0-0.3, f0+0.3))

	custom := &SafeZone{Method: MethodCustom, X0: x0, F0: f0, L: f0 - 0.3, U: f0 + 0.3,
		Custom: func(_ *Function, v []float64) bool { return v[0]+v[1] <= 0.6 }}
	add("custom", bilinear, custom)
	boxed := *custom
	boxed.BLo, boxed.BHi = bLo, bHi
	add("custom-boxed", bilinear, &boxed)
	return zones
}

// classifyPoints returns random points around z.X0 at several scales and the
// adversarial ones: x0 itself, NaN and ±Inf entries, every box face and the
// points one ulp either side of it.
func classifyPoints(rng *rand.Rand, z *SafeZone) [][]float64 {
	d := len(z.X0)
	var pts [][]float64
	for _, scale := range []float64{1e-3, 0.02, 0.1, 0.3, 1, 5} {
		for k := 0; k < 60; k++ {
			v := linalg.Clone(z.X0)
			for i := range v {
				v[i] += scale * rng.NormFloat64()
			}
			pts = append(pts, v)
		}
	}
	pts = append(pts, linalg.Clone(z.X0))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < d; i++ {
			v := linalg.Clone(z.X0)
			v[i] = bad
			pts = append(pts, v)
		}
		all := make([]float64, d)
		for i := range all {
			all[i] = bad
		}
		pts = append(pts, all)
	}
	if len(z.BLo) > 0 {
		for i := 0; i < d; i++ {
			for _, face := range []float64{z.BLo[i], z.BHi[i]} {
				for _, w := range []float64{face, math.Nextafter(face, math.Inf(-1)), math.Nextafter(face, math.Inf(1))} {
					v := linalg.Clone(z.X0)
					v[i] = w
					pts = append(pts, v)
				}
			}
		}
		pts = append(pts, linalg.Clone(z.BLo), linalg.Clone(z.BHi))
	}
	return pts
}

// TestClassifyMatchesSeparateChecks is the differential test of the one-pass
// classifier against the three separate checks, on every zone shape, with
// and without the ADCD-E scratch, and with the evaluation done by Value or by
// Grad. Points exactly on L and U are made by moving a threshold onto f(v).
func TestClassifyMatchesSeparateChecks(t *testing.T) {
	seen := map[ViolationKind]int{}
	for name, zc := range classifyZones(t) {
		f, z := zc.f, zc.z
		rng := rand.New(rand.NewSource(45))
		d := f.Dim()
		diff, grad := make([]float64, d), make([]float64, d)
		check := func(z *SafeZone, v []float64) {
			t.Helper()
			want := refKind(z, f, v, diff)
			seen[want]++
			for _, scratch := range [][]float64{diff, nil} {
				got, fv := z.classify(f, v, scratch, nil)
				if got != want {
					t.Fatalf("%s at %v (L %v, U %v): classify gives %v, the separate checks %v", name, v, z.L, z.U, got, want)
				}
				gotG, fvG := z.classify(f, v, scratch, grad)
				if gotG != want || math.Float64bits(fvG) != math.Float64bits(fv) {
					t.Fatalf("%s at %v: classify with grad gives (%v, %v), without (%v, %v)", name, v, gotG, fvG, got, fv)
				}
				if got != ViolationNeighborhood && math.Float64bits(fv) != math.Float64bits(f.Value(v)) {
					t.Fatalf("%s at %v: classify returns f(v) = %v, Value gives %v", name, v, fv, f.Value(v))
				}
			}
			if z.Custom == nil && z.ContainsScratch(f, v, diff) != refContains(z, f, v, diff) {
				t.Fatalf("%s at %v: ContainsScratch disagrees with the reference", name, v)
			}
		}
		for _, v := range classifyPoints(rng, z) {
			check(z, v)
			// The same point exactly on U, exactly on L, and with L = U = f(v).
			fv := f.Value(v)
			if math.IsNaN(fv) || math.IsInf(fv, 0) {
				continue
			}
			onU, onL, onBoth := *z, *z, *z
			onU.U = fv
			onL.L = fv
			onBoth.L, onBoth.U = fv, fv
			check(&onU, v)
			check(&onL, v)
			check(&onBoth, v)
		}
	}
	for _, kind := range []ViolationKind{0, ViolationNeighborhood, ViolationSafeZone, ViolationFaulty} {
		if seen[kind] == 0 {
			t.Errorf("no point produced outcome %v: the differential has no teeth there", kind)
		}
	}
}

// TestCheckRefreshMatchesCheckThenRefresh drives nodes through random walks
// with jumps and compares the one-Grad elided path with Check followed by the
// separate budget refresh: the same violation kind on every event, and the
// same budget bits and validity after it, through UpdateDataRefresh on every
// event and through UpdateElided, whose reference spends each event's
// displacement from its own copy of the last checked point.
func TestCheckRefreshMatchesCheckThenRefresh(t *testing.T) {
	const d = 6
	type pair struct{ refresh, elided, ref, refElided *Node }
	build := func(method Method) (pair, []float64) {
		a, ref, x0 := budgetTestZone(t, method, d, 0.4)
		b, refElided, _ := budgetTestZone(t, method, d, 0.4)
		ref.EnableElision()
		refElided.EnableElision()
		return pair{a, b, ref, refElided}, x0
	}
	type walker struct {
		name string
		p    pair
		x0   []float64
	}
	var walkers []walker
	for _, m := range []Method{MethodX, MethodE, MethodNone} {
		p, x0 := build(m)
		walkers = append(walkers, walker{m.String(), p, x0})
	}
	// A hand-crafted zone on an elision-enabled node: checked, never budgeted.
	{
		p, x0 := build(MethodE)
		z := &SafeZone{Method: MethodCustom, X0: x0, L: -1, U: 1,
			Custom: func(_ *Function, v []float64) bool { return linalg.SqDist(v, x0) < 0.05 }}
		for _, n := range []*Node{p.refresh, p.elided, p.ref, p.refElided} {
			if !n.ApplySync(&Sync{Zone: z, Slack: make([]float64, d)}) {
				t.Fatal("custom zone refused")
			}
		}
		walkers = append(walkers, walker{"custom", p, x0})
	}

	budgetsEqual := func(a, b *Node) bool {
		return a.el.valid == b.el.valid && math.Float64bits(a.el.budget) == math.Float64bits(b.el.budget)
	}
	for _, w := range walkers {
		p := w.p
		rng := rand.New(rand.NewSource(7))
		x := linalg.Clone(w.x0)
		step := make([]float64, d)
		// The reference's own copy of its last checked point and radius:
		// each event spends its displacement from there.
		checked, moved := make([]float64, d), make([]float64, d)
		var radius float64
		kinds := map[ViolationKind]int{}
		refreshed := 0
		for ev := 0; ev < 3000; ev++ {
			scale := 0.004
			switch r := rng.Float64(); {
			case r < 0.02:
				scale = 0.15
			case r < 0.03:
				copy(x, w.x0) // back home, so the walk keeps passing as well as failing
			}
			for i := range step {
				step[i] = rng.NormFloat64() * scale
			}
			linalg.Add(x, x, step)

			got := kindOf(p.refresh.UpdateDataRefresh(x))
			p.ref.SetData(x)
			want := kindOf(p.ref.Check())
			if want == 0 {
				refRefreshBudget(p.ref)
				if p.ref.el.valid {
					refreshed++
				}
			}
			kinds[want]++
			if got != want || !budgetsEqual(p.refresh, p.ref) {
				t.Fatalf("%s event %d: UpdateDataRefresh gives %v, budget (%v, %v); Check then refresh gives %v, budget (%v, %v)",
					w.name, ev, got, p.refresh.el.valid, p.refresh.el.budget, want, p.ref.el.valid, p.ref.el.budget)
			}

			vEl, skipped := p.elided.UpdateElided(x)
			if p.refElided.el.valid {
				p.refElided.el.budget = radius
			}
			disp := math.Sqrt(linalg.CopyShiftSqDist(moved, x, p.refElided.slack, checked))
			var refEl *Violation
			refSkipped := !p.refElided.SpendBudget(disp)
			if !refSkipped {
				p.refElided.SetData(x)
				if refEl = p.refElided.Check(); refEl == nil {
					refRefreshBudget(p.refElided)
					radius = p.refElided.el.budget
					linalg.Add(checked, x, p.refElided.slack)
				}
			}
			if skipped != refSkipped || kindOf(vEl) != kindOf(refEl) || !budgetsEqual(p.elided, p.refElided) {
				t.Fatalf("%s event %d: UpdateElided gives (%v, skipped %v, budget %v); the reference (%v, skipped %v, budget %v)",
					w.name, ev, kindOf(vEl), skipped, p.elided.el.budget, kindOf(refEl), refSkipped, p.refElided.el.budget)
			}
		}
		if kinds[0] == 0 || kinds[0] == 3000 {
			t.Errorf("%s: %d of 3000 events passed; the walk must both pass and fail", w.name, kinds[0])
		}
		if w.name != "custom" && refreshed == 0 {
			t.Errorf("%s: no refresh produced a valid budget", w.name)
		}
	}
}
