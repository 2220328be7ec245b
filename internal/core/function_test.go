package core

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/linalg"
)

// cubicFunc has an x-dependent Hessian with easy analytics:
// f = x0³ + x0·x1², H = [[6x0, 2x1], [2x1, 2x0]].
func cubicFunc() *Function {
	return NewFunction("cubic", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Add(b.Powi(x[0], 3), b.Mul(x[0], b.Square(x[1])))
	})
}

func TestExtremeEigsAt(t *testing.T) {
	f := cubicFunc()
	x := []float64{1, 0} // H = [[6,0],[0,2]]
	lamMin, lamMax, vMin, vMax, err := f.ExtremeEigsAt(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lamMin-2) > 1e-9 || math.Abs(lamMax-6) > 1e-9 {
		t.Fatalf("eigs = (%v, %v), want (2, 6)", lamMin, lamMax)
	}
	if math.Abs(math.Abs(vMin[1])-1) > 1e-9 || math.Abs(math.Abs(vMax[0])-1) > 1e-9 {
		t.Fatalf("eigenvectors wrong: vMin=%v vMax=%v", vMin, vMax)
	}
}

func TestEigGradMatchesFiniteDifference(t *testing.T) {
	// ∇ₓ(vᵀH(x)v) checked against central differences of φ(x) = vᵀH(x)v.
	f := cubicFunc()
	rng := rand.New(rand.NewSource(2))
	h := linalg.NewMat(2, 2)
	phi := func(x, v []float64) float64 {
		f.Hessian(x, h)
		return v[0]*linalg.Dot(h.Row(0), v) + v[1]*linalg.Dot(h.Row(1), v)
	}
	for trial := 0; trial < 10; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		v := []float64{rng.NormFloat64(), rng.NormFloat64()}
		got := make([]float64, 2)
		f.EigGrad(x, v, got)
		const hstep = 1e-5
		for i := 0; i < 2; i++ {
			xp := linalg.Clone(x)
			xp[i] += hstep
			fp := phi(xp, v)
			xp[i] = x[i] - hstep
			fm := phi(xp, v)
			want := (fp - fm) / (2 * hstep)
			if math.Abs(got[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("EigGrad[%d] = %v, want %v (x=%v, v=%v)", i, got[i], want, x, v)
			}
		}
	}
}

func TestExtremeEigsOverBoxKnownAnalytic(t *testing.T) {
	// For f = x0³ + x0·x1² on the box x0 ∈ [−1, 1], x1 ∈ [−1, 1]:
	// H eigenvalues are 4x0 ± 2√(x0² + x1²). The global minimum of λmin is
	// at x0 = −1, |x1| = 1: λmin = −4 − 2√2 ≈ −6.83; the global max of λmax
	// is at x0 = 1, |x1| = 1: λmax = 4 + 2√2 ≈ 6.83.
	f := cubicFunc()
	lo := []float64{-1, -1}
	hi := []float64{1, 1}
	lamMin, lamMax, _, err := extremeEigsOverBox(f, []float64{0, 0}, lo, hi, DecompOptions{Seed: 4, OptStarts: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 + 2*math.Sqrt2
	if math.Abs(lamMin+want) > 0.05 {
		t.Fatalf("λ̂min = %v, want %v", lamMin, -want)
	}
	if math.Abs(lamMax-want) > 0.05 {
		t.Fatalf("λ̂max = %v, want %v", lamMax, want)
	}
}

func TestExtremeEigsOverBoxConvexFunction(t *testing.T) {
	// For a convex function λmin ≥ 0 everywhere, so the ADCD-X decomposition
	// degrades to the identity (λ⁻min = 0) and correctness is guaranteed
	// (§3.7). f = x0² + 2x1² has constant eigenvalues {2, 4}.
	f := NewFunction("bowl", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Add(b.Square(x[0]), b.Mul(b.Const(2), b.Square(x[1])))
	})
	lamMin, lamMax, _, err := extremeEigsOverBox(f, []float64{0.5, 0.5},
		[]float64{-1, -1}, []float64{1, 1}, DecompOptions{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lamMin-2) > 1e-6 || math.Abs(lamMax-4) > 1e-6 {
		t.Fatalf("eigs = (%v, %v), want (2, 4)", lamMin, lamMax)
	}
}

func TestWithDomainValidation(t *testing.T) {
	f := cubicFunc()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched domain bounds")
		}
	}()
	f.WithDomain([]float64{0}, []float64{1})
}

func TestBuildZoneXConvexFunctionIsGuaranteed(t *testing.T) {
	// For convex f the heuristic must pick the convex difference with
	// Lam = 0, making the safe zone exactly {f ≤ U} ∩ {tangent ≥ L}, a true
	// DC decomposition.
	f := NewFunction("bowl", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Add(b.Square(x[0]), b.Square(x[1]))
	})
	x0 := []float64{0.5, 0}
	f0 := f.Value(x0)
	lo, hi := NeighborhoodBox(f, x0, 1, nil, nil)
	zone, err := BuildZoneX(f, x0, f0-0.3, f0+0.3, lo, hi, DecompOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if zone.Kind != ConvexDiff {
		t.Fatalf("kind = %v, want convex difference", zone.Kind)
	}
	if zone.Lam > 1e-9 {
		t.Fatalf("Lam = %v, want 0 for a convex function", zone.Lam)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		v := []float64{lo[0] + rng.Float64()*(hi[0]-lo[0]), lo[1] + rng.Float64()*(hi[1]-lo[1])}
		if zone.Contains(f, v) && !admissible(zone, f, v) {
			t.Fatalf("guaranteed zone leaked outside admissible region at %v", v)
		}
	}
}
