package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/linalg"
)

// testFn bundles a program with a reference implementation and a domain for
// sampling test points.
type testFn struct {
	name    string
	dim     int
	program Program
	ref     func(x []float64) float64
	lo, hi  float64 // sampling box per coordinate
	tol     float64
}

func testFns() []testFn {
	return []testFn{
		{
			name: "affine", dim: 3, lo: -2, hi: 2, tol: 1e-7,
			program: func(b *Builder, x []Ref) Ref {
				// 2x0 - 3x1 + 0.5x2 + 7
				return b.Sum(b.Mul(b.Const(2), x[0]), b.Mul(b.Const(-3), x[1]), b.Mul(b.Const(0.5), x[2]), b.Const(7))
			},
			ref: func(x []float64) float64 { return 2*x[0] - 3*x[1] + 0.5*x[2] + 7 },
		},
		{
			name: "quadratic", dim: 2, lo: -2, hi: 2, tol: 1e-6,
			program: func(b *Builder, x []Ref) Ref {
				// x0² + 3·x0·x1 - x1²
				return b.Sub(b.Add(b.Square(x[0]), b.Mul(b.Const(3), b.Mul(x[0], x[1]))), b.Square(x[1]))
			},
			ref: func(x []float64) float64 { return x[0]*x[0] + 3*x[0]*x[1] - x[1]*x[1] },
		},
		{
			name: "innerproduct", dim: 6, lo: -2, hi: 2, tol: 1e-6,
			program: func(b *Builder, x []Ref) Ref {
				return b.Dot(x[:3], x[3:])
			},
			ref: func(x []float64) float64 { return x[0]*x[3] + x[1]*x[4] + x[2]*x[5] },
		},
		{
			name: "rosenbrock", dim: 2, lo: -1.5, hi: 1.5, tol: 1e-5,
			program: func(b *Builder, x []Ref) Ref {
				a := b.Square(b.Sub(b.Const(1), x[0]))
				c := b.Mul(b.Const(100), b.Square(b.Sub(x[1], b.Square(x[0]))))
				return b.Add(a, c)
			},
			ref: func(x []float64) float64 {
				return (1-x[0])*(1-x[0]) + 100*(x[1]-x[0]*x[0])*(x[1]-x[0]*x[0])
			},
		},
		{
			name: "sin", dim: 1, lo: 0.2, hi: 3, tol: 1e-7,
			program: func(b *Builder, x []Ref) Ref { return b.Sin(x[0]) },
			ref:     func(x []float64) float64 { return math.Sin(x[0]) },
		},
		{
			name: "tanh-mlp", dim: 3, lo: -1, hi: 1, tol: 1e-6,
			program: func(b *Builder, x []Ref) Ref {
				w1 := [][]float64{{0.3, -0.7, 0.2}, {1.1, 0.4, -0.5}}
				h := b.Map(b.Tanh, b.Affine(w1, x, []float64{0.1, -0.2}))
				w2 := [][]float64{{0.9, -1.3}}
				return b.Affine(w2, h, []float64{0.05})[0]
			},
			ref: func(x []float64) float64 {
				h0 := math.Tanh(0.3*x[0] - 0.7*x[1] + 0.2*x[2] + 0.1)
				h1 := math.Tanh(1.1*x[0] + 0.4*x[1] - 0.5*x[2] - 0.2)
				return 0.9*h0 - 1.3*h1 + 0.05
			},
		},
		{
			name: "kld-term", dim: 2, lo: 0.1, hi: 1, tol: 1e-5,
			program: func(b *Builder, x []Ref) Ref {
				// p·log(p/q)
				return b.Mul(x[0], b.Log(b.Div(x[0], x[1])))
			},
			ref: func(x []float64) float64 { return x[0] * math.Log(x[0]/x[1]) },
		},
		{
			name: "exp-sqrt", dim: 2, lo: 0.3, hi: 2, tol: 1e-5,
			program: func(b *Builder, x []Ref) Ref {
				return b.Mul(b.Exp(b.Neg(x[0])), b.Sqrt(x[1]))
			},
			ref: func(x []float64) float64 { return math.Exp(-x[0]) * math.Sqrt(x[1]) },
		},
		{
			name: "sigmoid-relu", dim: 2, lo: 0.1, hi: 2, tol: 1e-5,
			program: func(b *Builder, x []Ref) Ref {
				return b.Sigmoid(b.Add(b.Relu(x[0]), b.Mul(b.Const(0.5), x[1])))
			},
			ref: func(x []float64) float64 {
				r := math.Max(x[0], 0)
				return 1 / (1 + math.Exp(-(r + 0.5*x[1])))
			},
		},
		{
			name: "powi-div", dim: 2, lo: 0.5, hi: 2, tol: 1e-5,
			program: func(b *Builder, x []Ref) Ref {
				return b.Div(b.Powi(x[0], 3), b.Powi(x[1], 2))
			},
			ref: func(x []float64) float64 { return x[0] * x[0] * x[0] / (x[1] * x[1]) },
		},
		{
			name: "cos-square", dim: 1, lo: -2, hi: 2, tol: 1e-6,
			program: func(b *Builder, x []Ref) Ref { return b.Square(b.Cos(x[0])) },
			ref:     func(x []float64) float64 { c := math.Cos(x[0]); return c * c },
		},
		{
			name: "abs-mix", dim: 2, lo: 0.2, hi: 2, tol: 1e-6,
			program: func(b *Builder, x []Ref) Ref {
				return b.Add(b.Abs(x[0]), b.Mul(b.Sign(x[0]), b.Square(x[1])))
			},
			ref: func(x []float64) float64 {
				s := 0.0
				if x[0] > 0 {
					s = 1
				} else if x[0] < 0 {
					s = -1
				}
				return math.Abs(x[0]) + s*x[1]*x[1]
			},
		},
	}
}

func samplePoint(rng *rand.Rand, fn testFn) []float64 {
	x := make([]float64, fn.dim)
	for i := range x {
		x[i] = fn.lo + rng.Float64()*(fn.hi-fn.lo)
	}
	return x
}

func fdGrad(f func([]float64) float64, x []float64, h float64) []float64 {
	g := make([]float64, len(x))
	xp := append([]float64(nil), x...)
	for i := range x {
		xp[i] = x[i] + h
		fp := f(xp)
		xp[i] = x[i] - h
		fm := f(xp)
		xp[i] = x[i]
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

func fdHessian(f func([]float64) float64, x []float64, h float64) *linalg.Mat {
	d := len(x)
	m := linalg.NewMat(d, d)
	xp := append([]float64(nil), x...)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			xp[i] += h
			xp[j] += h
			fpp := f(xp)
			xp[j] -= 2 * h
			fpm := f(xp)
			xp[i] -= 2 * h
			fmm := f(xp)
			xp[j] += 2 * h
			fmp := f(xp)
			xp[i], xp[j] = x[i], x[j]
			m.Set(i, j, (fpp-fpm-fmp+fmm)/(4*h*h))
		}
	}
	return m
}

func TestValueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fn := range testFns() {
		g := Compile(fn.dim, fn.program)
		for trial := 0; trial < 20; trial++ {
			x := samplePoint(rng, fn)
			got := g.Value(x)
			want := fn.ref(x)
			if math.Abs(got-want) > fn.tol*(1+math.Abs(want)) {
				t.Fatalf("%s: Value(%v) = %v, want %v", fn.name, x, got, want)
			}
		}
	}
}

func TestGradMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, fn := range testFns() {
		g := Compile(fn.dim, fn.program)
		grad := make([]float64, fn.dim)
		for trial := 0; trial < 10; trial++ {
			x := samplePoint(rng, fn)
			v := g.Grad(x, grad)
			if math.Abs(v-fn.ref(x)) > fn.tol*(1+math.Abs(v)) {
				t.Fatalf("%s: Grad returned value %v, want %v", fn.name, v, fn.ref(x))
			}
			want := fdGrad(fn.ref, x, 1e-5)
			for i := range grad {
				if math.Abs(grad[i]-want[i]) > 1e-4*(1+math.Abs(want[i])) {
					t.Fatalf("%s: grad[%d] = %v, want %v (x=%v)", fn.name, i, grad[i], want[i], x)
				}
			}
		}
	}
}

func TestHVPMatchesFiniteDifferenceHessian(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, fn := range testFns() {
		if fn.name == "sigmoid-relu" {
			continue // relu kink can land inside the FD stencil
		}
		g := Compile(fn.dim, fn.program)
		for trial := 0; trial < 5; trial++ {
			x := samplePoint(rng, fn)
			v := make([]float64, fn.dim)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			got := make([]float64, fn.dim)
			g.HVP(x, v, got)
			h := fdHessian(fn.ref, x, 1e-4)
			want := make([]float64, fn.dim)
			for i := range want {
				want[i] = linalg.Dot(h.Row(i), v)
			}
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-3*(1+math.Abs(want[i])) {
					t.Fatalf("%s: HVP[%d] = %v, want %v (x=%v, v=%v)", fn.name, i, got[i], want[i], x, v)
				}
			}
		}
	}
}

func TestHessianSymmetricAndMatchesFD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, fn := range testFns() {
		if fn.name == "sigmoid-relu" {
			continue
		}
		g := Compile(fn.dim, fn.program)
		x := samplePoint(rng, fn)
		h := linalg.NewMat(fn.dim, fn.dim)
		g.Hessian(x, h)
		for i := 0; i < fn.dim; i++ {
			for j := 0; j < fn.dim; j++ {
				if h.At(i, j) != h.At(j, i) {
					t.Fatalf("%s: Hessian not symmetric at (%d,%d)", fn.name, i, j)
				}
			}
		}
		want := fdHessian(fn.ref, x, 1e-4)
		for i := 0; i < fn.dim; i++ {
			for j := 0; j < fn.dim; j++ {
				if math.Abs(h.At(i, j)-want.At(i, j)) > 2e-3*(1+math.Abs(want.At(i, j))) {
					t.Fatalf("%s: H[%d,%d] = %v, want %v", fn.name, i, j, h.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestHessianKnownQuadratic(t *testing.T) {
	// f = x0² + 3·x0·x1 - x1² has constant Hessian [[2,3],[3,-2]].
	g := Compile(2, func(b *Builder, x []Ref) Ref {
		return b.Sub(b.Add(b.Square(x[0]), b.Mul(b.Const(3), b.Mul(x[0], x[1]))), b.Square(x[1]))
	})
	h := linalg.NewMat(2, 2)
	for _, x := range [][]float64{{0, 0}, {1, -2}, {5, 7}} {
		g.Hessian(x, h)
		want := [][]float64{{2, 3}, {3, -2}}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if math.Abs(h.At(i, j)-want[i][j]) > 1e-9 {
					t.Fatalf("H(%v)[%d,%d] = %v, want %v", x, i, j, h.At(i, j), want[i][j])
				}
			}
		}
	}
}

// oneOpFns covers each of the 18 non-leaf ops alone, at points inside its
// domain.
func oneOpFns() []testFn {
	unary := func(name string, lo, hi float64, op func(*Builder, Ref) Ref) testFn {
		return testFn{name: name, dim: 1, lo: lo, hi: hi,
			program: func(b *Builder, x []Ref) Ref { return op(b, x[0]) }}
	}
	binary := func(name string, op func(*Builder, Ref, Ref) Ref) testFn {
		return testFn{name: name, dim: 2, lo: 0.3, hi: 2,
			program: func(b *Builder, x []Ref) Ref { return op(b, x[0], x[1]) }}
	}
	return []testFn{
		binary("add", (*Builder).Add),
		binary("sub", (*Builder).Sub),
		binary("mul", (*Builder).Mul),
		binary("div", (*Builder).Div),
		unary("neg", -2, 2, (*Builder).Neg),
		unary("tanh", -2, 2, (*Builder).Tanh),
		unary("relu", -2, 2, (*Builder).Relu),
		unary("step", -2, 2, (*Builder).Step),
		unary("sigmoid", -3, 3, (*Builder).Sigmoid),
		unary("exp", -2, 2, (*Builder).Exp),
		unary("log", 0.1, 3, (*Builder).Log),
		unary("sin", -3, 3, (*Builder).Sin),
		unary("cos", -3, 3, (*Builder).Cos),
		unary("sqrt", 0.1, 3, (*Builder).Sqrt),
		unary("square", -2, 2, (*Builder).Square),
		unary("powi", 0.2, 2, func(b *Builder, x Ref) Ref { return b.Powi(x, -3) }),
		unary("abs", -2, 2, (*Builder).Abs),
		unary("sign", -2, 2, (*Builder).Sign),
	}
}

// gradScale returns, per variable, Σ|ā·∂|: the magnitude of the terms
// Grad's sweep adds up, which sets the scale of its rounding error. Where
// they cancel (KLD's log(p/q) + 1 near p/q = 1/e), the gradient is far
// smaller than its terms, and two correctly rounded evaluations in another
// operation order differ by ulps of the terms, not of the result.
func gradScale(g *Graph, x []float64) []float64 {
	val := make([]float64, len(g.nodes))
	adj := make([]float64, len(g.nodes))
	bind(val, g.vars, x)
	forward(g.nodes, val)
	adj[g.out] = 1
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := &g.nodes[i]
		if n.op == OpConst || n.op == OpVar {
			continue
		}
		var vb float64
		if n.b >= 0 {
			vb = val[n.b]
		}
		pa, pb := n.partials(val[n.a], vb, val[i])
		adj[n.a] += math.Abs(adj[i] * pa)
		if n.b >= 0 {
			adj[n.b] += math.Abs(adj[i] * pb)
		}
	}
	scale := make([]float64, len(g.vars))
	for i, r := range g.vars {
		scale[i] = adj[r]
	}
	return scale
}

// sweepGrad is the numeric reverse sweep over f's own nodes, the reference
// Grad's gradient program is checked against. It returns f(x).
func sweepGrad(g *Graph, x, grad []float64) float64 {
	val := make([]float64, len(g.nodes))
	adj := make([]float64, len(g.nodes))
	bind(val, g.vars, x)
	forward(g.nodes, val)
	adj[g.out] = 1
	sweep(g.nodes, val, adj)
	for i, r := range g.vars {
		grad[i] = adj[r]
	}
	return val[g.out]
}

// TestAdjointMatchesGrad compares Grad, which runs the reverse-mode
// transform's gradient program, with the numeric sweep: partials and adjoint
// are the only two copies of the vjp rules, and nothing else checks one
// against the other. The two may group operands differently (adjoint writes
// ā/x where partials has ā·(1/x)), so they must agree within 4 ulps of the
// gradient's terms.
func TestAdjointMatchesGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var entries, equal int
	worst, worstUlps := 0.0, 0.0
	for _, fn := range append(testFns(), oneOpFns()...) {
		g := Compile(fn.dim, fn.program)
		got := make([]float64, fn.dim)
		want := make([]float64, fn.dim)
		for trial := 0; trial < 20; trial++ {
			x := samplePoint(rng, fn)
			g.Grad(x, got)
			sweepGrad(g, x, want)
			scale := gradScale(g, x)
			for i := range got {
				ulp := math.Nextafter(scale[i], math.Inf(1)) - scale[i]
				if diff := math.Abs(got[i] - want[i]); diff > 4*ulp {
					t.Fatalf("%s: adjoint grad[%d] = %v, sweep %v: %.1f ulps of the terms' magnitude %v (x=%v)",
						fn.name, i, got[i], want[i], diff/ulp, scale[i], x)
				} else if diff > 0 {
					worst = math.Max(worst, diff/math.Abs(want[i]))
					worstUlps = math.Max(worstUlps, diff/ulp)
				}
				entries++
				if got[i] == want[i] {
					equal++
				}
			}
		}
	}
	t.Logf("%d of %d entries bit-equal; worst difference %.2g relative, %.1f ulps of the terms", equal, entries, worst, worstUlps)
}

// sameNode reports whether two nodes are equal, comparing constants by bits
// so that a NaN constant equals itself.
func sameNode(a, b node) bool {
	return a.op == b.op && a.a == b.a && a.b == b.b && math.Float64bits(a.k) == math.Float64bits(b.k)
}

// TestGradPrefixIsF checks the layout Grad relies on: the gradient program's
// first nodes are f's as the Builder made them, so Grad's value is Value's
// bit for bit, also at NaN and ±Inf inputs. Where no op's rule regroups
// operands (no Div, no Log), the gradient is the sweep's bit for bit too.
func TestGradPrefixIsF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	fns := append(testFns(), oneOpFns()...)
	fns = append(fns,
		testFn{name: "bench16", dim: 16, lo: -1, hi: 1, program: benchProgram(16)},
		testFn{name: "ams-f2-4x64", dim: 256, lo: -1, hi: 1, program: f2Program(256)})
	for _, fn := range fns {
		b := NewBuilder(fn.dim)
		g := b.Finish(fn.program(b, b.Vars()))
		n := len(b.nodes)
		if len(g.nodes) != n || cap(g.nodes) != n || &g.nodes[0] != &g.grad[0] {
			t.Fatalf("%s: f's nodes are not the first %d of G's %d", fn.name, n, len(g.grad))
		}
		regroups := false
		for i := range b.nodes {
			if !sameNode(g.grad[i], b.nodes[i]) {
				t.Fatalf("%s: G's node %d is %+v, f's is %+v", fn.name, i, g.grad[i], b.nodes[i])
			}
			regroups = regroups || b.nodes[i].op == OpDiv || b.nodes[i].op == OpLog
		}

		got := make([]float64, fn.dim)
		want := make([]float64, fn.dim)
		for trial := 0; trial < 10; trial++ {
			x := samplePoint(rng, fn)
			if v, w := g.Grad(x, got), sweepGrad(g, x, want); math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: Grad value %v, sweep %v (x=%v)", fn.name, v, w, x)
			}
			for i := range got {
				if !regroups && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: grad[%d] = %v, sweep %v (x=%v)", fn.name, i, got[i], want[i], x)
				}
			}
			for _, s := range special {
				i := rng.Intn(fn.dim)
				old := x[i]
				x[i] = s
				if v, w := g.Grad(x, got), g.Value(x); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: Grad value %v, Value %v (x=%v)", fn.name, v, w, x)
				}
				x[i] = old
			}
		}
	}
}

// TestEigGradGivesThirdOrder checks ∇ₓ(vᵀH(x)v) against closed forms.
func TestEigGradGivesThirdOrder(t *testing.T) {
	cube := Compile(1, func(b *Builder, x []Ref) Ref { return b.Powi(x[0], 3) })
	// H = 6x, so ∇ₓ(vᵀHv) = 6v².
	got := make([]float64, 1)
	cube.EigGrad([]float64{1.5}, []float64{2}, got)
	if want := 6 * 2.0 * 2.0; math.Abs(got[0]-want) > 1e-12 {
		t.Fatalf("x³: EigGrad = %v, want %v", got[0], want)
	}

	mixed := Compile(2, func(b *Builder, x []Ref) Ref {
		return b.Add(b.Mul(b.Square(x[0]), x[1]), b.Powi(x[1], 3))
	})
	// H = [[2x₁, 2x₀], [2x₀, 6x₁]], so vᵀHv = 2x₁v₀² + 4x₀v₀v₁ + 6x₁v₁².
	got = make([]float64, 2)
	x, v := []float64{0.7, -1.2}, []float64{0.6, -0.8}
	mixed.EigGrad(x, v, got)
	want := []float64{4 * v[0] * v[1], 2*v[0]*v[0] + 6*v[1]*v[1]}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("x₀²x₁ + x₁³: EigGrad[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDegreeAnalysis(t *testing.T) {
	cases := []struct {
		name    string
		dim     int
		program Program
		want    int
	}{
		{"const", 1, func(b *Builder, x []Ref) Ref { return b.Const(3) }, 0},
		{"linear", 2, func(b *Builder, x []Ref) Ref { return b.Add(x[0], x[1]) }, 1},
		{"quadratic", 2, func(b *Builder, x []Ref) Ref { return b.Mul(x[0], x[1]) }, 2},
		{"square", 1, func(b *Builder, x []Ref) Ref { return b.Square(x[0]) }, 2},
		{"cubic", 1, func(b *Builder, x []Ref) Ref { return b.Powi(x[0], 3) }, 3},
		{"div-const", 1, func(b *Builder, x []Ref) Ref { return b.Div(x[0], b.Const(2)) }, 1},
		{"div-var", 2, func(b *Builder, x []Ref) Ref { return b.Div(x[0], x[1]) }, NonPolynomial},
		{"sin", 1, func(b *Builder, x []Ref) Ref { return b.Sin(x[0]) }, NonPolynomial},
		{"sin-const", 1, func(b *Builder, x []Ref) Ref { return b.Mul(x[0], b.Sin(b.Const(1))) }, 1},
		{"tanh", 1, func(b *Builder, x []Ref) Ref { return b.Tanh(x[0]) }, NonPolynomial},
	}
	for _, c := range cases {
		g := Compile(c.dim, c.program)
		if got := g.Degree(); got != c.want {
			t.Errorf("%s: Degree = %d, want %d", c.name, got, c.want)
		}
	}
	// Constant-Hessian detection
	quad := Compile(2, func(b *Builder, x []Ref) Ref { return b.Mul(x[0], x[1]) })
	if !quad.HasConstantHessian() {
		t.Error("x0·x1 should have constant Hessian")
	}
	ros := Compile(2, func(b *Builder, x []Ref) Ref {
		return b.Add(b.Square(b.Sub(b.Const(1), x[0])), b.Mul(b.Const(100), b.Square(b.Sub(x[1], b.Square(x[0])))))
	})
	if ros.HasConstantHessian() {
		t.Error("Rosenbrock (degree 4) must not report constant Hessian")
	}
}

func TestConstantFolding(t *testing.T) {
	g := Compile(1, func(b *Builder, x []Ref) Ref {
		zero := b.Const(0)
		one := b.Const(1)
		// ((x + 0) * 1 - 0) + (2 + 3)
		return b.Add(b.Sub(b.Mul(b.Add(x[0], zero), one), zero), b.Add(b.Const(2), b.Const(3)))
	})
	// One var node, two const nodes (0 folded away may remain as node but
	// unused), and a single add for x+5. Just check small size and value.
	// Dead constant nodes (2 and 3 before folding) may remain; what matters
	// is that no add/mul/sub chain survived.
	if len(g.nodes) > 8 {
		t.Fatalf("folding failed: graph has %d nodes", len(g.nodes))
	}
	if got := g.Value([]float64{4}); got != 9 {
		t.Fatalf("Value = %v, want 9", got)
	}
}

func TestInputDimPanic(t *testing.T) {
	g := Compile(2, func(b *Builder, x []Ref) Ref { return b.Add(x[0], x[1]) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input length")
		}
	}()
	g.Value([]float64{1})
}

func TestReluAndStepSemantics(t *testing.T) {
	g := Compile(1, func(b *Builder, x []Ref) Ref { return b.Relu(x[0]) })
	grad := make([]float64, 1)
	if v := g.Grad([]float64{2}, grad); v != 2 || grad[0] != 1 {
		t.Fatalf("relu(2): v=%v grad=%v", v, grad[0])
	}
	if v := g.Grad([]float64{-2}, grad); v != 0 || grad[0] != 0 {
		t.Fatalf("relu(-2): v=%v grad=%v", v, grad[0])
	}
	// Second derivative of relu is 0 everywhere it is defined.
	out := make([]float64, 1)
	g.HVP([]float64{2}, []float64{1}, out)
	if out[0] != 0 {
		t.Fatalf("relu HVP = %v, want 0", out[0])
	}
}

func TestConcurrentEvaluation(t *testing.T) {
	g := Compile(4, func(b *Builder, x []Ref) Ref { return b.SqNorm(x) })
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			grad := make([]float64, 4)
			for i := 0; i < 200; i++ {
				x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
				v := g.Grad(x, grad)
				want := x[0]*x[0] + x[1]*x[1] + x[2]*x[2] + x[3]*x[3]
				if math.Abs(v-want) > 1e-9 {
					done <- errFmt("concurrent value mismatch")
					return
				}
				for j := range x {
					if math.Abs(grad[j]-2*x[j]) > 1e-9 {
						done <- errFmt("concurrent grad mismatch")
						return
					}
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errFmt string

func (e errFmt) Error() string { return string(e) }
