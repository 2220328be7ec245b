package interval

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/linalg"
	"automon/internal/testenv"
)

func eq(a Interval, lo, hi float64) bool { return a.Lo == lo && a.Hi == hi }

func TestArithmeticBasics(t *testing.T) {
	a := Interval{1, 2}
	b := Interval{-3, 4}
	if got := a.Add(b); !eq(got, -2, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !eq(got, -3, 5) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); !eq(got, -6, 8) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Neg(); !eq(got, -2, -1) {
		t.Errorf("Neg = %v", got)
	}
	if got := b.Square(); !eq(got, 0, 16) {
		t.Errorf("Square = %v", got)
	}
	if got := b.Abs(); !eq(got, 0, 4) {
		t.Errorf("Abs = %v", got)
	}
	if got := b.Relu(); !eq(got, 0, 4) {
		t.Errorf("Relu = %v", got)
	}
	if got := b.Step(); !eq(got, 0, 1) {
		t.Errorf("Step = %v", got)
	}
	if got := b.Sign(); !eq(got, -1, 1) {
		t.Errorf("Sign = %v", got)
	}
}

func TestDivisionThroughZero(t *testing.T) {
	if got := (Interval{1, 1}).Div(Interval{-1, 1}); got != Entire {
		t.Errorf("1/[-1,1] = %v, want Entire", got)
	}
	if got := (Interval{1, 2}).Div(Interval{2, 4}); !eq(got, 0.25, 1) {
		t.Errorf("[1,2]/[2,4] = %v", got)
	}
	// Negative integer power through zero widens the same way.
	if got := (Interval{-1, 1}).Powi(-2); got != Entire {
		t.Errorf("[-1,1]^-2 = %v, want Entire", got)
	}
}

func TestPartialDomains(t *testing.T) {
	if got := (Interval{-2, -1}).Log(); got != Entire {
		t.Errorf("log of negative interval = %v, want Entire", got)
	}
	if got := (Interval{-1, 4}).Log(); !(math.IsInf(got.Lo, -1) && got.Hi == math.Log(4)) {
		t.Errorf("log[-1,4] = %v", got)
	}
	if got := (Interval{-1, 4}).Sqrt(); !eq(got, 0, 2) {
		t.Errorf("sqrt[-1,4] = %v", got)
	}
	if got := (Interval{-3, -2}).Sqrt(); got != Entire {
		t.Errorf("sqrt of negative interval = %v, want Entire", got)
	}
}

func TestNaNWidensToEntire(t *testing.T) {
	// 0·∞ is indeterminate: the product must widen, never return NaN.
	if got := (Interval{0, 0}).Mul(Entire); got != Entire {
		t.Errorf("0·Entire = %v, want Entire", got)
	}
	if got := Point(math.NaN()); got != Entire {
		t.Errorf("Point(NaN) = %v, want Entire", got)
	}
	if got := Entire.Sub(Entire); got != Entire {
		t.Errorf("Entire-Entire = %v, want Entire", got)
	}
}

func TestTrigRanges(t *testing.T) {
	pi := math.Pi
	if got := (Interval{0, pi}).Sin(); !(got.Lo == 0 && got.Hi == 1) {
		t.Errorf("sin[0,π] = %v", got)
	}
	if got := (Interval{0, pi}).Cos(); !(got.Lo == -1 && got.Hi == 1) {
		t.Errorf("cos[0,π] = %v", got)
	}
	if got := (Interval{0, 7}).Sin(); !eq(got, -1, 1) {
		t.Errorf("sin over a full period = %v", got)
	}
	if got := (Interval{0.1, 0.2}).Sin(); !(got.Lo == math.Sin(0.1) && got.Hi == math.Sin(0.2)) {
		t.Errorf("sin monotone slice = %v", got)
	}
	if got := Entire.Sin(); !eq(got, -1, 1) {
		t.Errorf("sin(Entire) = %v", got)
	}
}

// TestArithmeticContainment is the property backing every op: for random
// operand intervals and random points inside them, the interval result
// contains the pointwise result.
func TestArithmeticContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() (Interval, float64) {
		a := rng.NormFloat64() * 3
		b := a + rng.Float64()*4
		x := a + rng.Float64()*(b-a)
		return Interval{a, b}, x
	}
	unary := []struct {
		name string
		iv   func(Interval) Interval
		sc   func(float64) float64
	}{
		{"neg", Interval.Neg, func(v float64) float64 { return -v }},
		{"square", Interval.Square, func(v float64) float64 { return v * v }},
		{"exp", Interval.Exp, math.Exp},
		{"tanh", Interval.Tanh, math.Tanh},
		{"sigmoid", Interval.Sigmoid, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }},
		{"sin", Interval.Sin, math.Sin},
		{"cos", Interval.Cos, math.Cos},
		{"abs", Interval.Abs, math.Abs},
		{"relu", Interval.Relu, func(v float64) float64 { return math.Max(v, 0) }},
		{"log", Interval.Log, math.Log},
		{"sqrt", Interval.Sqrt, math.Sqrt},
	}
	for trial := 0; trial < 5000; trial++ {
		a, x := draw()
		b, y := draw()
		checks := []struct {
			name string
			iv   Interval
			want float64
		}{
			{"add", a.Add(b), x + y},
			{"sub", a.Sub(b), x - y},
			{"mul", a.Mul(b), x * y},
			{"div", a.Div(b), x / y},
			{"powi3", a.Powi(3), powi(x, 3)},
			{"powi4", a.Powi(4), powi(x, 4)},
			{"powi-1", a.Powi(-1), powi(x, -1)},
		}
		for _, u := range unary {
			checks = append(checks, struct {
				name string
				iv   Interval
				want float64
			}{u.name, u.iv(a), u.sc(x)})
		}
		for _, c := range checks {
			if math.IsNaN(c.want) {
				continue // outside the op's real domain at this sample
			}
			if !c.iv.Contains(c.want) {
				t.Fatalf("trial %d: %s(%v,%v) = %v does not contain %v", trial, c.name, a, b, c.iv, c.want)
			}
		}
	}
}

func buildGraph(t *testing.T) *autodiff.Graph {
	t.Helper()
	// A graph touching div, log, sqrt, trig, powi and square with a domain
	// keeping everything well-defined on [0.5, 2]².
	return autodiff.Compile(2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		q := b.Div(b.Square(x[0]), b.Add(x[1], b.Const(3)))
		s := b.Mul(b.Sin(x[0]), b.Log(x[1]))
		p := b.Powi(b.Add(x[0], x[1]), 3)
		return b.Add(q, b.Add(s, b.Mul(b.Const(0.01), p)))
	})
}

func TestHessianPointBoxMatchesScalar(t *testing.T) {
	g := buildGraph(t)
	e := NewEvaluator(g)
	h := linalg.NewMat(2, 2)
	m := NewMat(2)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		x := []float64{0.5 + 1.5*rng.Float64(), 0.5 + 1.5*rng.Float64()}
		g.Hessian(x, h)
		if err := e.Hessian(x, x, m); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				c := m.At(i, j)
				if !c.IsPoint() || c.Lo != h.At(i, j) {
					t.Fatalf("trial %d: cell (%d,%d) = %v, scalar %v", trial, i, j, c, h.At(i, j))
				}
			}
		}
	}
}

// TestHessianSteadyStateAllocs backs the //automon:hotpath annotations: once
// the scratch pool is warm, an interval Hessian evaluation allocates nothing.
func TestHessianSteadyStateAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, defeating AllocsPerRun")
	}
	e := NewEvaluator(buildGraph(t))
	m := NewMat(2)
	lo := []float64{0.5, 0.5}
	hi := []float64{2, 2}
	if err := e.Hessian(lo, hi, m); err != nil { // warm the pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := e.Hessian(lo, hi, m); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("steady-state Hessian allocates %.1f objects per call, want 0", avg)
	}
}

func TestHessianBoxRejection(t *testing.T) {
	e := NewEvaluator(buildGraph(t))
	m := NewMat(2)
	if err := e.Hessian([]float64{1, 2}, []float64{1, 1}, m); err == nil {
		t.Error("inverted box accepted")
	}
	if err := e.Hessian([]float64{1, math.NaN()}, []float64{1, 1}, m); err == nil {
		t.Error("NaN box accepted")
	}
	if err := e.Hessian([]float64{1}, []float64{1}, m); err == nil {
		t.Error("wrong-dimension box accepted")
	}
	if err := e.Hessian([]float64{0, 0}, []float64{1, 1}, NewMat(3)); err == nil {
		t.Error("wrong-shape matrix accepted")
	}
	if err := e.Hessian([]float64{0, 0}, []float64{1, math.Inf(1)}, m); err != nil {
		t.Errorf("unbounded box rejected: %v", err)
	}
}

func TestEigBoundsKnownMatrices(t *testing.T) {
	// Exact diagonal point matrix: bounds must enclose [1, 3] tightly.
	m := NewMat(2)
	m.Set(0, 0, Point(1))
	m.Set(1, 1, Point(3))
	lo, hi, err := EigBounds(m)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 1 || hi < 3 {
		t.Fatalf("bounds [%v, %v] do not enclose [1, 3]", lo, hi)
	}
	if lo < 0.9 || hi > 3.1 {
		t.Fatalf("bounds [%v, %v] needlessly loose for a point matrix", lo, hi)
	}

	// Interval perturbation of the identity: eigenvalues of any member of
	// I ± 0.1 lie within [1 − 0.2, 1 + 0.2] (Weyl), and the midpoint pass
	// should get within the row-sum of radii.
	p := NewMat(2)
	p.Set(0, 0, Interval{0.9, 1.1})
	p.Set(1, 1, Interval{0.9, 1.1})
	p.Set(0, 1, Interval{-0.1, 0.1})
	p.Set(1, 0, Interval{-0.1, 0.1})
	lo, hi, err = EigBounds(p)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0.8 || hi < 1.2 {
		t.Fatalf("bounds [%v, %v] unsound for I±0.1", lo, hi)
	}
	if lo < 0.7 || hi > 1.3 {
		t.Fatalf("bounds [%v, %v] looser than Gershgorin for I±0.1", lo, hi)
	}

	// Unbounded cells degrade to infinite bounds, not errors.
	u := NewMat(1)
	u.Set(0, 0, Entire)
	lo, hi, err = EigBounds(u)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatalf("Entire cell bounds = [%v, %v]", lo, hi)
	}

	if _, _, err := EigBounds(NewMat(0)); err == nil {
		t.Error("empty matrix accepted")
	}
}

// TestEigBoundsContainsSampledMembers draws random interval matrices and
// random symmetric members, checking every member eigenvalue lands inside.
func TestEigBoundsContainsSampledMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(5)
		m := NewMat(d)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				c := rng.NormFloat64() * 2
				r := rng.Float64()
				iv := Interval{c - r, c + r}
				m.Set(i, j, iv)
				m.Set(j, i, iv)
			}
		}
		lo, hi, err := EigBounds(m)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 20; s++ {
			a := linalg.NewMat(d, d)
			for i := 0; i < d; i++ {
				for j := i; j < d; j++ {
					iv := m.At(i, j)
					v := iv.Lo + rng.Float64()*iv.Width()
					a.Set(i, j, v)
					a.Set(j, i, v)
				}
			}
			ev, err := linalg.EigenvaluesSym(a)
			if err != nil {
				t.Fatal(err)
			}
			if emin, emax := ev[0], ev[len(ev)-1]; emin < lo || emax > hi {
				t.Fatalf("trial %d: member eigs [%v, %v] escape bounds [%v, %v]", trial, emin, emax, lo, hi)
			}
		}
	}
}
