package optimize

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func sphereGrad(x, g []float64) {
	for i := range x {
		g[i] = 2 * x[i]
	}
}

func rosenbrock(x []float64) float64 {
	return (1-x[0])*(1-x[0]) + 100*(x[1]-x[0]*x[0])*(x[1]-x[0]*x[0])
}

func rosenbrockGrad(x, g []float64) {
	g[0] = -2*(1-x[0]) - 400*x[0]*(x[1]-x[0]*x[0])
	g[1] = 200 * (x[1] - x[0]*x[0])
}

func box(d int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, d)
	h := make([]float64, d)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

func TestMinimizeSphere(t *testing.T) {
	lo, hi := box(5, -10, 10)
	x0 := []float64{3, -4, 5, 1, -2}
	r, err := Minimize(sphere, sphereGrad, x0, lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("did not converge: %+v", r)
	}
	if r.F > 1e-10 {
		t.Fatalf("sphere minimum = %v at %v", r.F, r.X)
	}
}

func TestMinimizeSphereWithAnalyticGradient(t *testing.T) {
	lo, hi := box(5, -10, 10)
	x0 := []float64{3, -4, 5, 1, -2}
	gradCalls := 0
	grad := func(x, g []float64) {
		gradCalls++
		sphereGrad(x, g)
	}
	r, err := Minimize(sphere, grad, x0, lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.F > 1e-10 {
		t.Fatalf("minimum = %v", r.F)
	}
	if gradCalls == 0 {
		t.Fatal("analytic gradient was never called")
	}
	// With an analytic gradient, objective evaluations come only from the
	// line search.
	if r.FuncEvals > 60 {
		t.Fatalf("too many evaluations with analytic gradient: %d", r.FuncEvals)
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	lo, hi := box(2, -5, 5)
	r, err := Minimize(rosenbrock, rosenbrockGrad, []float64{-1.2, 1}, lo, hi, Options{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1) > 1e-3 || math.Abs(r.X[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock solution = %v (f=%v)", r.X, r.F)
	}
}

func TestMinimizeRespectsBox(t *testing.T) {
	// Minimum of (x-3)² over [-1, 1] is at x = 1.
	f := func(x []float64) float64 { return (x[0] - 3) * (x[0] - 3) }
	g := func(x, g []float64) { g[0] = 2 * (x[0] - 3) }
	r, err := Minimize(f, g, []float64{0}, []float64{-1}, []float64{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1) > 1e-8 {
		t.Fatalf("bound-constrained solution = %v, want 1", r.X[0])
	}
}

func TestMinimizeStartOutsideBoxIsClamped(t *testing.T) {
	r, err := Minimize(sphere, sphereGrad, []float64{100}, []float64{-1}, []float64{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.X[0] < -1 || r.X[0] > 2 {
		t.Fatalf("solution %v escaped the box", r.X[0])
	}
	if math.Abs(r.X[0]) > 1e-5 {
		t.Fatalf("solution = %v, want 0", r.X[0])
	}
}

func TestMinimizeBadBox(t *testing.T) {
	if _, err := Minimize(sphere, sphereGrad, []float64{0}, []float64{1}, []float64{-1}, Options{}); !errors.Is(err, ErrBadBox) {
		t.Fatalf("lo > hi: err = %v, want ErrBadBox", err)
	}
	if _, err := Minimize(sphere, sphereGrad, []float64{0, 0}, []float64{0}, []float64{1}, Options{}); !errors.Is(err, ErrBadBox) {
		t.Fatalf("dimension mismatch: err = %v, want ErrBadBox", err)
	}
}

func TestMinimizeRequiresGradient(t *testing.T) {
	if _, err := Minimize(sphere, nil, []float64{1}, []float64{-2}, []float64{2}, Options{}); !errors.Is(err, ErrNoGradient) {
		t.Fatalf("nil gradient: err = %v, want ErrNoGradient", err)
	}
}

func TestMinimizeMaxFunEvals(t *testing.T) {
	r, err := Minimize(rosenbrock, rosenbrockGrad, []float64{-1.2, 1}, []float64{-5, -5}, []float64{5, 5},
		Options{MaxIter: 1000, MaxFunEva: 30})
	if err != nil {
		t.Fatal(err)
	}
	// The line search may finish its current probe, but the cap must
	// roughly hold.
	if r.FuncEvals > 40 {
		t.Fatalf("evaluation cap ignored: %d evals", r.FuncEvals)
	}
}

func TestMinimizeDegenerateBox(t *testing.T) {
	// lo == hi pins the variable; solver must return immediately with that point.
	r, err := Minimize(sphere, sphereGrad, []float64{5, 3}, []float64{2, -10}, []float64{2, 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.X[0] != 2 {
		t.Fatalf("pinned variable moved: %v", r.X[0])
	}
	if math.Abs(r.X[1]) > 1e-6 {
		t.Fatalf("free variable not optimized: %v", r.X[1])
	}
}

func TestMinimizeQuadraticBowlRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(6)
		center := make([]float64, d)
		for i := range center {
			center[i] = rng.NormFloat64()
		}
		f := func(x []float64) float64 {
			var s float64
			for i := range x {
				v := x[i] - center[i]
				s += float64(i+1) * v * v
			}
			return s
		}
		g := func(x, g []float64) {
			for i := range x {
				g[i] = 2 * float64(i+1) * (x[i] - center[i])
			}
		}
		lo, hi := box(d, -10, 10)
		x0 := make([]float64, d)
		r, err := Minimize(f, g, x0, lo, hi, Options{MaxIter: 200})
		if err != nil {
			t.Fatal(err)
		}
		for i := range center {
			if math.Abs(r.X[i]-center[i]) > 1e-4 {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, r.X[i], center[i])
			}
		}
	}
}
