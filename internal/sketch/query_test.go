package sketch_test

import (
	"math"
	"testing"

	"automon/internal/funcs"
	"automon/internal/sketch"
)

// TestQueryFamily: the §5 queries monitored over a flattened AMS sketch read
// the sketch's own estimators.
func TestQueryFamily(t *testing.T) {
	// funcs.AMSF2 over a sketch vector equals the sketch's own F2 estimate.
	a, _ := sketch.NewAMS(4, 16, 1)
	for i := uint64(0); i < 40; i++ {
		a.Add(i%7, 1)
	}
	f := funcs.AMSF2(4, 16)
	if got, want := f.Value(a.Vector()), a.F2(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("AMSF2 = %v, sketch F2 = %v", got, want)
	}
	if _, _, ok := f.CurvBound(); !ok {
		t.Fatal("AMSF2 must expose an automatic curvature bound")
	}

	// funcs.InnerProduct over stacked same-seed sketches, divided by the
	// row count, estimates ⟨u, v⟩.
	rows, cols := 8, 128
	su, _ := sketch.NewAMS(rows, cols, 9)
	sv, _ := sketch.NewAMS(rows, cols, 9)
	// u = v = indicator-ish stream: ⟨u, v⟩ = Σ freq².
	var exact float64
	for i := uint64(0); i < 30; i++ {
		su.Add(i, 1)
		sv.Add(i, 1)
		exact++
	}
	ip := funcs.InnerProduct(rows * cols)
	x2 := make([]float64, 2*rows*cols)
	copy(x2, su.Vector())
	copy(x2[rows*cols:], sv.Vector())
	if got := ip.Value(x2) / float64(rows); math.Abs(got-exact)/exact > 0.5 {
		t.Fatalf("inner product estimate = %v, exact %v", got, exact)
	}
	if !ip.HasConstantHessian() {
		t.Fatal("inner-product query must have a constant Hessian (ADCD-E)")
	}
}
