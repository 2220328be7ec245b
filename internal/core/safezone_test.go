package core

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/linalg"
)

// sineFunc builds f(x) = sin(x) on the domain [0, π].
func sineFunc() *Function {
	f := NewFunction("sin", 1, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Sin(x[0])
	})
	return f.WithDomain([]float64{0}, []float64{math.Pi})
}

// quadraticFunc builds f(x) = xᵀQx for a fixed symmetric Q.
func quadraticFunc(q *linalg.Mat) *Function {
	d := q.Rows
	return NewFunction("quadratic", d, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		var terms []autodiff.Ref
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				if q.At(i, j) != 0 {
					terms = append(terms, b.Mul(b.Const(q.At(i, j)), b.Mul(x[i], x[j])))
				}
			}
		}
		return b.Sum(terms...)
	})
}

// zoneInterval scans [0, π] for the 1-D safe-zone interval of z.
func zoneInterval(t *testing.T, f *Function, z *SafeZone) (lo, hi float64) {
	t.Helper()
	const steps = 10000
	lo, hi = math.NaN(), math.NaN()
	for i := 0; i <= steps; i++ {
		x := math.Pi * float64(i) / steps
		if z.Contains(f, []float64{x}) {
			if math.IsNaN(lo) {
				lo = x
			}
			hi = x
		}
	}
	return lo, hi
}

// TestFig1SineSafeZones reproduces Figure 1 of the paper: monitoring sin(x)
// at x0 = π/2 with L = 0.8 and U = 1.2 and global curvature bounds
// (λ⁻min = −1, λ⁺max = 1 over ℝ). The admissible region is [0.927, 2.214];
// the convex-difference safe zone is ≈ [0.938, 2.203]; the
// concave-difference safe zone is ≈ [1.121, 2.203] — a strict subset.
func TestFig1SineSafeZones(t *testing.T) {
	f := sineFunc()
	x0 := []float64{math.Pi / 2}
	grad := make([]float64, 1)
	f0 := f.Grad(x0, grad)
	l, u := 0.8, 1.2

	base := SafeZone{
		Method: MethodX,
		X0:     linalg.Clone(x0),
		F0:     f0,
		GradF0: linalg.Clone(grad),
		L:      l,
		U:      u,
	}
	convex := base
	convex.Kind = ConvexDiff
	convex.Lam = 1 // |λ⁻min| of −sin over ℝ
	concave := base
	concave.Kind = ConcaveDiff
	concave.Lam = 1 // λ⁺max of −sin over ℝ

	cLo, cHi := zoneInterval(t, f, &convex)
	kLo, kHi := zoneInterval(t, f, &concave)

	// Expected endpoints: ȟ-constraint gives |x−x0| ≤ √0.4 for the convex
	// difference; ĝ(x) = sin(x) − ½(x−x0)² ≥ 0.8 gives x ≥ 1.121 for the
	// concave one.
	if math.Abs(cLo-(math.Pi/2-math.Sqrt(0.4))) > 1e-3 {
		t.Errorf("convex zone lower end = %.4f, want %.4f", cLo, math.Pi/2-math.Sqrt(0.4))
	}
	if math.Abs(cHi-(math.Pi/2+math.Sqrt(0.4))) > 1e-3 {
		t.Errorf("convex zone upper end = %.4f, want %.4f", cHi, math.Pi/2+math.Sqrt(0.4))
	}
	if math.Abs(kLo-1.121) > 5e-3 {
		t.Errorf("concave zone lower end = %.4f, want ≈1.121", kLo)
	}
	if kHi > cHi+1e-9 {
		t.Errorf("concave zone upper end %.4f exceeds convex %.4f", kHi, cHi)
	}

	// Both safe zones must sit inside the admissible region [0.927, 2.214].
	admLo, admHi := math.Asin(0.8), math.Pi-math.Asin(0.8)
	for _, z := range []struct {
		name   string
		lo, hi float64
	}{{"convex", cLo, cHi}, {"concave", kLo, kHi}} {
		if z.lo < admLo-1e-3 || z.hi > admHi+1e-3 {
			t.Errorf("%s safe zone [%.4f, %.4f] escapes admissible [%.4f, %.4f]",
				z.name, z.lo, z.hi, admLo, admHi)
		}
	}

	// The paper's observation: near a concave region of f, the convex
	// difference yields the wider safe zone.
	if !(cHi-cLo > kHi-kLo) {
		t.Errorf("convex zone (%.4f wide) should beat concave (%.4f wide)", cHi-cLo, kHi-kLo)
	}
}

func TestChooseKind(t *testing.T) {
	// sin at x0=π/2: H(x0) = −1, λ⁻min = 1 (abs), λ⁺max = 1.
	// left = (−1+1)+1 = 1; right = |−1 + (−1−1)|  = 3 → convex.
	if k := chooseKindX(-1, -1, 1, 1); k != ConvexDiff {
		t.Errorf("sin at π/2: kind = %v, want convex", k)
	}
	// Mirror situation (convex region): H(x0) = +1 ⇒ concave preferred.
	if k := chooseKindX(1, 1, 1, 1); k != ConcaveDiff {
		t.Errorf("mirror: kind = %v, want concave", k)
	}
	if k := chooseKindE(-0.5, 2); k != ConvexDiff {
		t.Errorf("chooseKindE(-0.5, 2) = %v, want convex", k)
	}
	if k := chooseKindE(-3, 1); k != ConcaveDiff {
		t.Errorf("chooseKindE(-3, 1) = %v, want concave", k)
	}
}

func TestDecomposeEExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		d := 2 + rng.Intn(4)
		q := linalg.NewMat(d, d)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				v := rng.NormFloat64()
				q.Set(i, j, v)
				q.Set(j, i, v)
			}
		}
		f := quadraticFunc(q)
		if !f.HasConstantHessian() {
			t.Fatal("quadratic must report constant Hessian")
		}
		x0 := make([]float64, d)
		dec, err := DecomposeE(f, x0)
		if err != nil {
			t.Fatal(err)
		}
		// dec.H must be the whole Kind-matching part of the true Hessian 2Q
		// (f = xᵀQx with symmetric Q): every eigenvalue it keeps has that
		// part's sign, and what is left of H after removing it is
		// semidefinite of the other sign.
		rest := linalg.NewMat(d, d)
		f.Hessian(x0, rest)
		for i, v := range denseOf(dec.H).Data {
			rest.Data[i] -= v
		}
		left, err := linalg.EigenvaluesSym(rest)
		if err != nil {
			t.Fatal(err)
		}
		sign := 1.0 // concave kind keeps H⁺, leaving H⁻
		if dec.Kind == ConvexDiff {
			sign = -1
		}
		for _, lam := range dec.H.Lam {
			if sign*lam <= 0 {
				t.Fatalf("%v factor keeps eigenvalue %v", dec.Kind, lam)
			}
		}
		for _, lam := range left {
			if sign*lam > 1e-8 {
				t.Fatalf("%v: H minus its factor still has eigenvalue %v", dec.Kind, lam)
			}
		}
	}
}

// denseOf rebuilds the d×d matrix Σⱼ λⱼ·vⱼvⱼᵀ an eigen-factor stands for —
// the dense form the tests use as the reference for the factored check.
func denseOf(h *linalg.EigFactor) *linalg.Mat {
	d := h.V.Cols
	m := linalg.NewMat(d, d)
	for j, lam := range h.Lam {
		v := h.V.Row(j)
		for r := 0; r < d; r++ {
			for c := 0; c < d; c++ {
				m.Data[r*d+c] += lam * v[r] * v[c]
			}
		}
	}
	return m
}

// quadForm returns vᵀ·m·v for a square matrix m.
func quadForm(m *linalg.Mat, v []float64) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += v[i] * linalg.Dot(m.Row(i), v)
	}
	return s
}

// TestSafeZoneSoundness is the central correctness property: for a true DC
// decomposition, every point in the safe zone lies in the admissible region,
// and the zone is convex — so means of in-zone points are also admissible.
func TestSafeZoneSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := linalg.NewMat(3, 3)
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			v := rng.NormFloat64()
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	}
	f := quadraticFunc(q)
	x0 := []float64{0.3, -0.2, 0.1}
	dec, err := DecomposeE(f, x0)
	if err != nil {
		t.Fatal(err)
	}
	f0 := f.Value(x0)
	zone := BuildZoneE(f, dec, x0, f0-0.5, f0+0.5)

	var inZone [][]float64
	for trial := 0; trial < 5000; trial++ {
		v := make([]float64, 3)
		for i := range v {
			v[i] = x0[i] + rng.NormFloat64()*0.6
		}
		if zone.Contains(f, v) {
			if !admissible(zone, f, v) {
				t.Fatalf("safe zone point %v outside admissible region (f=%v, [%v, %v])",
					v, f.Value(v), zone.L, zone.U)
			}
			inZone = append(inZone, v)
		}
	}
	if len(inZone) < 50 {
		t.Fatalf("too few in-zone samples (%d) for the convexity check", len(inZone))
	}
	// Convexity: random pairwise midpoints and random k-means must stay in
	// the zone (this is exactly the property the GM protocol relies on).
	mean := make([]float64, 3)
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(4)
		pts := make([][]float64, k)
		for i := range pts {
			pts[i] = inZone[rng.Intn(len(inZone))]
		}
		linalg.Mean(mean, pts...)
		if !zone.Contains(f, mean) {
			t.Fatalf("mean of in-zone points left the zone: %v", mean)
		}
	}
}

// TestSafeZoneSoundnessADCDX repeats the soundness check for ADCD-X on a
// non-constant-Hessian function (Rosenbrock) within a neighborhood.
func TestSafeZoneSoundnessADCDX(t *testing.T) {
	f := rosenbrockFunc()
	x0 := []float64{0.1, 0.05}
	bLo, bHi := NeighborhoodBox(f, x0, 0.5, nil, nil)
	f0 := f.Value(x0)
	zone, err := BuildZoneX(f, x0, f0-1, f0+1, bLo, bHi, DecompOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var inZone [][]float64
	for trial := 0; trial < 5000; trial++ {
		v := []float64{
			bLo[0] + rng.Float64()*(bHi[0]-bLo[0]),
			bLo[1] + rng.Float64()*(bHi[1]-bLo[1]),
		}
		if zone.Contains(f, v) {
			if !admissible(zone, f, v) {
				t.Fatalf("ADCD-X zone point %v outside admissible (f=%v ∉ [%v, %v])",
					v, f.Value(v), zone.L, zone.U)
			}
			inZone = append(inZone, v)
		}
	}
	if len(inZone) < 20 {
		t.Fatalf("too few in-zone samples: %d", len(inZone))
	}
	mean := make([]float64, 2)
	for trial := 0; trial < 200; trial++ {
		a := inZone[rng.Intn(len(inZone))]
		b := inZone[rng.Intn(len(inZone))]
		linalg.Mean(mean, a, b)
		if !zone.Contains(f, mean) {
			t.Fatalf("midpoint of in-zone points left the ADCD-X zone: %v", mean)
		}
	}
}

func rosenbrockFunc() *Function {
	return NewFunction("rosenbrock", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		a := b.Square(b.Sub(b.Const(1), x[0]))
		c := b.Mul(b.Const(100), b.Square(b.Sub(x[1], b.Square(x[0]))))
		return b.Add(a, c)
	})
}

func TestADCDESupersetOfADCDX(t *testing.T) {
	// §3.2: for constant-Hessian functions the ADCD-X safe zone is a subset
	// of the ADCD-E safe zone. Sample and verify the inclusion.
	rng := rand.New(rand.NewSource(31))
	q := linalg.NewMat(2, 2)
	q.Set(0, 0, 1)
	q.Set(1, 1, -2)
	f := quadraticFunc(q)
	x0 := []float64{0.2, 0.1}
	f0 := f.Value(x0)
	l, u := f0-0.4, f0+0.4

	dec, err := DecomposeE(f, x0)
	if err != nil {
		t.Fatal(err)
	}
	zoneE := BuildZoneE(f, dec, x0, l, u)
	bLo, bHi := NeighborhoodBox(f, x0, 3, nil, nil)
	zoneX, err := BuildZoneX(f, x0, l, u, bLo, bHi, DecompOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3000; trial++ {
		v := []float64{x0[0] + rng.NormFloat64(), x0[1] + rng.NormFloat64()}
		if zoneX.Contains(f, v) && !zoneE.Contains(f, v) {
			t.Fatalf("point %v in ADCD-X zone but not ADCD-E zone", v)
		}
	}
}

func TestNeighborhoodBoxClampsToDomain(t *testing.T) {
	f := sineFunc() // domain [0, π]
	lo, hi := NeighborhoodBox(f, []float64{0.1}, 0.5, nil, nil)
	if lo[0] != 0 {
		t.Errorf("lower bound = %v, want clamp at 0", lo[0])
	}
	if math.Abs(hi[0]-0.6) > 1e-12 {
		t.Errorf("upper bound = %v, want 0.6", hi[0])
	}
}

func TestNoADCDZoneIsAdmissibleRegion(t *testing.T) {
	f := rosenbrockFunc()
	x0 := []float64{0, 0}
	f0 := f.Value(x0)
	zone := BuildZoneNone(f, x0, f0-1, f0+1)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		v := []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5}
		in := zone.Contains(f, v)
		adm := admissible(zone, f, v)
		if in != adm {
			t.Fatalf("no-ADCD zone disagrees with admissible region at %v", v)
		}
	}
}
