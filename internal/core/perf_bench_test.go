package core

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/linalg"
)

// benchCubic is a d-dimensional function with a genuinely x-dependent
// Hessian (cubic + cross terms), so ADCD-X must run the full eigenvalue
// search over the neighborhood box.
func benchCubic(d int) *Function {
	return NewFunction("bench-cubic", d, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		acc := b.Square(x[0])
		for i := 0; i < d; i++ {
			acc = b.Add(acc, b.Powi(x[i], 3))
			acc = b.Add(acc, b.Mul(x[i], b.Square(x[(i+1)%d])))
		}
		return acc
	})
}

// benchBilinear is a d-dimensional constant-Hessian function (inner-product
// style), the ADCD-E path.
func benchBilinear(d int) *Function {
	return NewFunction("bench-bilinear", d, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		acc := b.Mul(x[0], x[1])
		for i := 1; i+1 < d; i++ {
			acc = b.Add(acc, b.Mul(x[i], x[i+1]))
		}
		return acc
	})
}

// benchZoneX builds a small ADCD-X zone around the origin-ish point.
func benchZoneX(b *testing.B, f *Function, x0 []float64, r float64) *SafeZone {
	b.Helper()
	grad := make([]float64, f.Dim())
	f0 := f.Grad(x0, grad)
	bLo, bHi := NeighborhoodBox(f, x0, r)
	zone, err := BuildZoneX(f, x0, f0-1, f0+1, bLo, bHi, DecompOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return zone
}

func BenchmarkSafeZoneCheckX(b *testing.B) {
	const d = 12
	f := benchCubic(d)
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.1 * float64(i%3)
	}
	zone := benchZoneX(b, f, x0, 0.5)
	node := NewNode(0, f)
	node.ApplySync(&Sync{NodeID: 0, Method: zone.Method, Kind: zone.Kind,
		X0: zone.X0, F0: zone.F0, GradF0: zone.GradF0, L: zone.L, U: zone.U,
		Lam: zone.Lam, R: 0.5, Slack: make([]float64, d)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := node.UpdateData(x0); v != nil {
			b.Fatalf("unexpected violation: %+v", v)
		}
	}
}

func BenchmarkSafeZoneCheckE(b *testing.B) {
	const d = 12
	f := benchBilinear(d)
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.2
	}
	dec, err := DecomposeE(f, x0)
	if err != nil {
		b.Fatal(err)
	}
	zone := BuildZoneE(f, dec, x0, zoneVal(f, x0)-1, zoneVal(f, x0)+1)
	node := NewNode(0, f)
	m := &Sync{NodeID: 0, Method: zone.Method, Kind: zone.Kind,
		X0: zone.X0, F0: zone.F0, GradF0: zone.GradF0, L: zone.L, U: zone.U,
		Slack: make([]float64, d), WithMatrix: true, Matrix: zone.H}
	node.ApplySync(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := node.UpdateData(x0); v != nil {
			b.Fatalf("unexpected violation: %+v", v)
		}
	}
}

func zoneVal(f *Function, x []float64) float64 { return f.Value(x) }

// containsEFixture is the two ends of the ADCD-E check at the benchmark's
// sketch dimension: the rank-0 zone of f = ¼‖x‖² (what the F₂ query gets
// from DecomposeE) and a zone over the same f whose factor is given every
// one of the d eigenpairs, next to the dense d×d matrix that factor stands
// for, checked the way zones were checked before they kept eigenpairs.
type containsEFixture struct {
	f           *Function
	rank0, full *SafeZone
	v, diff     []float64
	dense       func() bool
}

func newContainsEFixture(tb testing.TB, d int) *containsEFixture {
	tb.Helper()
	f := NewFunction("quarter-sqnorm", d, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Mul(b.Const(0.25), b.SqNorm(x))
	})
	rng := rand.New(rand.NewSource(1))
	x0 := make([]float64, d)
	v := make([]float64, d)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
		v[i] = x0[i] + 1e-3*rng.NormFloat64()
	}
	dec, err := DecomposeE(f, x0)
	if err != nil {
		tb.Fatal(err)
	}
	if len(dec.H.Lam) != 0 {
		tb.Fatalf("¼‖x‖² must give a rank-0 factor, got rank %d", len(dec.H.Lam))
	}
	f0 := f.Value(x0)
	fx := &containsEFixture{f: f, v: v, diff: make([]float64, d)}
	fx.rank0 = BuildZoneE(f, dec, x0, f0-1, f0+1)

	sym := linalg.NewMat(d, d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			sym.Set(i, j, rng.NormFloat64())
			sym.Set(j, i, sym.At(i, j))
		}
	}
	values, vecs, err := linalg.EigenSym(sym, true)
	if err != nil {
		tb.Fatal(err)
	}
	for j := range values {
		values[j] = -0.01 * (1 + math.Abs(values[j]))
	}
	full := *fx.rank0
	full.H, _ = linalg.SplitEig(values, vecs)
	if len(full.H.Lam) != d {
		tb.Fatalf("full-rank factor has rank %d of %d", len(full.H.Lam), d)
	}
	fx.full = &full
	dense := denseOf(full.H)
	fx.dense = func() bool {
		linalg.Sub(fx.diff, fx.v, full.X0)
		return full.containsWithQuadratic(f, fx.v, -0.5*quadForm(dense, fx.diff))
	}
	return fx
}

// BenchmarkContainsE times the exact ADCD-E check at d = 256 for a rank-0
// and a full-rank factor against the dense d×d form.
func BenchmarkContainsE(b *testing.B) {
	fx := newContainsEFixture(b, 256)
	for _, bc := range []struct {
		name  string
		check func() bool
	}{
		{"rank0", func() bool { return fx.rank0.ContainsScratch(fx.f, fx.v, fx.diff) }},
		{"fullrank", func() bool { return fx.full.ContainsScratch(fx.f, fx.v, fx.diff) }},
		{"dense-reference", fx.dense},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !bc.check() {
					b.Fatal("in-zone point rejected")
				}
			}
		})
	}
}

func BenchmarkExtremeEigsOverBox(b *testing.B) {
	const d = 8
	f := benchCubic(d)
	x0 := make([]float64, d)
	bLo, bHi := NeighborhoodBox(f, x0, 0.5)
	for _, bc := range []struct {
		name string
		opts DecompOptions
	}{
		{"memo", DecompOptions{Seed: 1}},
		{"nomemo", DecompOptions{Seed: 1, noEvalMemo: true}},
		{"memo-parallel", DecompOptions{Seed: 1, Workers: 0}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExtremeEigsOverBox(f, x0, bLo, bHi, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildZoneX(b *testing.B) {
	const d = 8
	f := benchCubic(d)
	x0 := make([]float64, d)
	grad := make([]float64, d)
	f0 := f.Grad(x0, grad)
	bLo, bHi := NeighborhoodBox(f, x0, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildZoneX(f, x0, f0-1, f0+1, bLo, bHi, DecompOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTune(b *testing.B) {
	f := rosenbrockFunc()
	data := rosenbrockData(rand.New(rand.NewSource(41)), 80, 4)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{Epsilon: 0.25, Decomp: DecompOptions{Seed: 2, Workers: bc.workers}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Tune(f, data, 4, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
