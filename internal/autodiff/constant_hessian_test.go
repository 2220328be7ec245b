package autodiff_test

import (
	"math"
	"sync"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
)

// TestConstantHessianHoldsNoProgram: a constant-Hessian function has its
// Hessian evaluated only at set-up, so after CurvBound and DecomposeE the
// graph holds no Hessian-vector product program, and the
// Hessian built on that uncached path is bit-equal to the cached one.
func TestConstantHessianHoldsNoProgram(t *testing.T) {
	f := funcs.AMSF2(4, 64)
	g := f.Graph
	d := f.Dim()
	if _, _, ok := f.CurvBound(); !ok {
		t.Fatal("AMS F2 has no automatic curvature bound")
	}
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = float64(i%7) - 3
	}
	if _, err := core.DecomposeE(f, x0); err != nil {
		t.Fatal(err)
	}
	if autodiff.HoldsHVP(g) {
		t.Fatal("the graph holds its HVP program after CurvBound and DecomposeE")
	}
	dropped := linalg.NewMat(d, d)
	g.Hessian(x0, dropped)
	if autodiff.HoldsHVP(g) {
		t.Fatal("Hessian cached the program of a constant-Hessian graph")
	}

	// HVP caches P, as it does for every graph; Hessian then reuses it.
	g.HVP(x0, make([]float64, d), make([]float64, d))
	if !autodiff.HoldsHVP(g) {
		t.Fatal("HVP did not cache the program")
	}
	cached := linalg.NewMat(d, d)
	g.Hessian(x0, cached)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if a, b := dropped.At(i, j), cached.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("H[%d][%d]: %g built for the call, %g cached", i, j, a, b)
			}
		}
	}
}

// TestHessianRacesHVPBuild runs Hessian, which looks for a cached program
// without building one, beside HVP, which builds and caches it: every
// Hessian must come out the same whichever side wins.
func TestHessianRacesHVPBuild(t *testing.T) {
	f := funcs.AMSF2(2, 8)
	g := f.Graph
	d := f.Dim()
	x := make([]float64, d)
	want := linalg.NewMat(d, d)
	g.Hessian(x, want)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				g.HVP(x, x, make([]float64, d))
				return
			}
			h := linalg.NewMat(d, d)
			g.Hessian(x, h)
			for i, v := range h.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Errorf("Hessian entry %d: %g, want %g", i, v, want.Data[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
