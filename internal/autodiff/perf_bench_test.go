package autodiff

import (
	"testing"

	"automon/internal/linalg"
)

// benchProgram is a d-dimensional function with nonconstant Hessian.
func benchProgram(d int) Program {
	return func(b *Builder, x []Ref) Ref {
		acc := b.Square(x[0])
		for i := 0; i < d; i++ {
			acc = b.Add(acc, b.Powi(x[i], 3))
			acc = b.Add(acc, b.Mul(x[i], b.Square(x[(i+1)%d])))
		}
		return acc
	}
}

// benchGraph builds benchProgram(d).
func benchGraph(d int) *Graph { return Compile(d, benchProgram(d)) }

// f2Program is the AMS sketch's F₂ estimator over 4 rows of d/4 counters,
// (1/4)·‖x‖², the function of the quiet-sock benchmark workload.
func f2Program(d int) Program {
	return func(b *Builder, x []Ref) Ref { return b.Mul(b.Const(1.0/4), b.SqNorm(x)) }
}

func BenchmarkGraphValue(b *testing.B) {
	const d = 16
	g := benchGraph(d)
	x := make([]float64, d)
	for i := range x {
		x[i] = 0.3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Value(x)
	}
}

func BenchmarkGraphGrad(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"bench16", benchGraph(16)},
		{"ams-f2-4x64", Compile(256, f2Program(256))},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := make([]float64, c.g.Dim())
			grad := make([]float64, c.g.Dim())
			for i := range x {
				x[i] = 0.3
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.g.Grad(x, grad)
			}
		})
	}
}

func BenchmarkGraphHessian(b *testing.B) {
	const d = 16
	g := benchGraph(d)
	x := make([]float64, d)
	for i := range x {
		x[i] = 0.3
	}
	h := linalg.NewMat(d, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Hessian(x, h)
	}
}
