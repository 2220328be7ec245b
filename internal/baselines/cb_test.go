package baselines

import (
	"math/rand"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
)

func TestCBZoneSoundAndConvex(t *testing.T) {
	const half = 3
	f := funcs.InnerProduct(half)
	build := ConvexBoundInnerProduct(half)
	rng := rand.New(rand.NewSource(11))

	x0 := make([]float64, 2*half)
	for i := range x0 {
		x0[i] = rng.NormFloat64() * 0.5
	}
	f0 := f.Value(x0)
	zone := build(f, x0, f0-0.4, f0+0.4)

	var inZone [][]float64
	for trial := 0; trial < 8000; trial++ {
		v := make([]float64, 2*half)
		for i := range v {
			v[i] = x0[i] + rng.NormFloat64()*0.5
		}
		if zone.Contains(f, v) {
			// Soundness: CB's hand-derived decomposition is exact, so the
			// zone must sit inside the admissible region.
			if fv := f.Value(v); !(zone.L <= fv && fv <= zone.U) {
				t.Fatalf("CB zone point %v outside admissible region (f = %v)", v, f.Value(v))
			}
			inZone = append(inZone, v)
		}
	}
	if len(inZone) < 50 {
		t.Fatalf("too few in-zone samples: %d", len(inZone))
	}
	mean := make([]float64, 2*half)
	for trial := 0; trial < 500; trial++ {
		a := inZone[rng.Intn(len(inZone))]
		b := inZone[rng.Intn(len(inZone))]
		linalg.Mean(mean, a, b)
		if !zone.Contains(f, mean) {
			t.Fatalf("CB zone not convex: midpoint %v escaped", mean)
		}
	}
}

func TestCBZoneEquivalentToADCDE(t *testing.T) {
	// §4.3 claims CB's ¼‖u+v‖² − ¼‖u−v‖² equals the ADCD-E decomposition
	// for the inner product. The two safe zones must agree pointwise.
	const half = 2
	f := funcs.InnerProduct(half)
	x0 := []float64{0.3, -0.2, 0.5, 0.1}
	f0 := f.Value(x0)
	l, u := f0-0.3, f0+0.3

	cb := ConvexBoundInnerProduct(half)(f, x0, l, u)
	dec, err := core.DecomposeE(f, x0)
	if err != nil {
		t.Fatal(err)
	}
	e := core.BuildZoneE(f, dec, x0, l, u)

	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5000; trial++ {
		v := make([]float64, 2*half)
		for i := range v {
			v[i] = x0[i] + rng.NormFloat64()*0.6
		}
		if cb.Contains(f, v) != e.Contains(f, v) {
			t.Fatalf("CB and ADCD-E disagree at %v: cb=%v e=%v",
				v, cb.Contains(f, v), e.Contains(f, v))
		}
	}
}
