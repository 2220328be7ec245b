// Package funcs is the function zoo of the AutoMon evaluation (§4.2): each
// constructor returns a core.Function built from its "source code" — an
// autodiff program — exactly as a user of the library would write it. The
// zoo covers every function monitored in the paper plus a few extras used by
// the test suite: inner product, quadratic form, KL divergence, MLP-d, the
// intrusion-detection DNN, Rosenbrock, sin, the −x1²+x2² ablation saddle,
// entropy, and the squared norm.
package funcs

import (
	"fmt"
	"math"
	"math/rand"

	"automon/internal/autodiff"
	"automon/internal/core"
	"automon/internal/linalg"
	"automon/internal/nn"
)

// InnerProduct returns f([u, v]) = ⟨u, v⟩ with dim = 2·half. Its Hessian is
// constant, so AutoMon monitors it with ADCD-E — automatically recovering
// the hand-crafted ⟨u,v⟩ = ¼‖u+v‖² − ¼‖u−v‖² decomposition of Lazerson et
// al. (§4.3).
func InnerProduct(half int) *core.Function {
	return core.NewFunction(fmt.Sprintf("inner-product-%d", 2*half), 2*half,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Dot(x[:half], x[half:])
		})
}

// QuadraticForm returns f(x) = xᵀQx for the given (not necessarily
// symmetric) matrix Q. The Hessian Q + Qᵀ is constant: ADCD-E applies.
func QuadraticForm(q *linalg.Mat) *core.Function {
	d := q.Rows
	return core.NewFunction(fmt.Sprintf("quadratic-%d", d), d,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			rows := make([]autodiff.Ref, d)
			for i := 0; i < d; i++ {
				terms := make([]autodiff.Ref, d)
				for j := 0; j < d; j++ {
					terms[j] = b.Mul(b.Const(q.At(i, j)), x[j])
				}
				rows[i] = b.Mul(x[i], b.Sum(terms...))
			}
			return b.Sum(rows...)
		})
}

// RandomQuadratic builds the §4.2 quadratic-form workload: Q with standard
// normal entries scaled by 1/d to keep values O(1) at unit inputs.
func RandomQuadratic(d int, seed int64) *core.Function {
	rng := rand.New(rand.NewSource(seed))
	q := linalg.NewMat(d, d)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64() / float64(d)
	}
	return QuadraticForm(q)
}

// KLD returns the smoothed Kullback–Leibler divergence over 2·bins inputs:
// x = [p, q] with f = Σ (pᵢ+τ)·log((pᵢ+τ)/(qᵢ+τ)). KLD is jointly convex in
// (p, q), so AutoMon's approximation guarantee is deterministic (§4.2).
// The domain is the unit box (probability-vector entries).
func KLD(bins int, tau float64) *core.Function {
	d := 2 * bins
	f := core.NewFunction(fmt.Sprintf("kld-%d", d), d,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			t := b.Const(tau)
			terms := make([]autodiff.Ref, bins)
			for i := 0; i < bins; i++ {
				p := b.Add(x[i], t)
				q := b.Add(x[bins+i], t)
				terms[i] = b.Mul(p, b.Log(b.Div(p, q)))
			}
			return b.Sum(terms...)
		})
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range hi {
		hi[i] = 1
	}
	// Gershgorin over the per-bin 2×2 Hessian blocks on the unit box: the q
	// row dominates with 1/(q+τ) + (p+τ)/(q+τ)² ≤ 1/τ + (1+τ)/τ².
	return f.WithDomain(lo, hi).WithCurvature(1/tau + (1+tau)/(tau*tau))
}

// Entropy returns f(p) = −Σ (pᵢ+τ)·log(pᵢ+τ), a concave function on the
// unit box, exercising the concave-difference guarantee path.
func Entropy(bins int, tau float64) *core.Function {
	f := core.NewFunction(fmt.Sprintf("entropy-%d", bins), bins,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			t := b.Const(tau)
			terms := make([]autodiff.Ref, bins)
			for i := 0; i < bins; i++ {
				p := b.Add(x[i], t)
				terms[i] = b.Mul(p, b.Log(p))
			}
			return b.Neg(b.Sum(terms...))
		})
	lo := make([]float64, bins)
	hi := make([]float64, bins)
	for i := range hi {
		hi[i] = 1
	}
	// The Hessian is diag(−1/(pᵢ+τ)), so ‖∇²f‖ ≤ 1/τ on the unit box.
	return f.WithDomain(lo, hi).WithCurvature(1 / tau)
}

// Network wraps a trained nn.Network as a monitored function; this is the
// "given the model's source code" entry point used for MLP-d and the
// intrusion-detection DNN.
func Network(name string, net *nn.Network) *core.Function {
	return core.NewFunction(name, net.InputDim(),
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			a := x
			for _, l := range net.Layers {
				a = b.Affine(l.W, a, l.B)
				switch l.Act {
				case nn.Tanh:
					a = b.Map(b.Tanh, a)
				case nn.ReLU:
					a = b.Map(b.Relu, a)
				case nn.Sigmoid:
					a = b.Map(b.Sigmoid, a)
				}
			}
			return a[0]
		})
}

// MLPTarget is the regression target the paper trains MLP-d on:
// x₁·exp(−(1/(d−1))·Σ xᵢ²).
func MLPTarget(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return x[0] * math.Exp(-s/float64(len(x)-1))
}

// TrainMLP trains the MLP-d network (§4.2): input d, three tanh hidden
// layers, identity output, fitted to MLPTarget on inputs covering the
// dataset's drift range. Deterministic given seed.
func TrainMLP(d int, seed int64) (*core.Function, error) {
	rng := rand.New(rand.NewSource(seed))
	hidden := 10
	net, err := nn.New(rng, []int{d, hidden, hidden, hidden, 1},
		[]nn.Activation{nn.Tanh, nn.Tanh, nn.Tanh, nn.Identity})
	if err != nil {
		return nil, err
	}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 2000; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = -2.5 + 5*rng.Float64()
		}
		xs = append(xs, x)
		ys = append(ys, MLPTarget(x))
	}
	if _, err := net.Train(rng, xs, ys, nn.TrainConfig{Epochs: 30, LR: 0.02, Loss: nn.MSE}); err != nil {
		return nil, err
	}
	return Network(fmt.Sprintf("mlp-%d", d), net), nil
}

// CosineSimilarity returns f([u, v]) = ⟨u,v⟩ / (‖u‖·‖v‖), the classic
// geometric-monitoring benchmark function of Sharfman et al., here derived
// automatically instead of through their hand-crafted sphere bounds. The
// Hessian depends on x, so AutoMon uses ADCD-X. Callers should keep the
// data away from the ‖u‖ = 0 / ‖v‖ = 0 singularity (e.g. via the domain).
func CosineSimilarity(half int) *core.Function {
	return core.NewFunction(fmt.Sprintf("cosine-%d", 2*half), 2*half,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			u, v := x[:half], x[half:]
			dot := b.Dot(u, v)
			den := b.Sqrt(b.Mul(b.SqNorm(u), b.SqNorm(v)))
			return b.Div(dot, den)
		})
}

// Logistic returns the output of a logistic-regression model on the global
// average, f(x) = σ(wᵀx + bias) — monitoring a deployed linear classifier's
// aggregate score, the simplest instance of the paper's model-monitoring
// motif.
func Logistic(w []float64, bias float64) *core.Function {
	weights := append([]float64(nil), w...)
	f := core.NewFunction(fmt.Sprintf("logistic-%d", len(w)), len(w),
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Sigmoid(b.Add(b.Dot(b.ConstVec(weights), x), b.Const(bias)))
		})
	// ∇²f = σ″(wᵀx+b)·wwᵀ and max|σ″| = √3/18, so ‖∇²f‖ ≤ (√3/18)·‖w‖²
	// everywhere.
	nw := linalg.Norm2(weights)
	return f.WithCurvature(math.Sqrt(3) / 18 * nw * nw)
}

// Rosenbrock returns f(x) = (1−x₁)² + 100(x₂−x₁²)², the hard non-constant-
// Hessian case used for neighborhood-size tuning (§3.6, §4.5).
func Rosenbrock() *core.Function {
	return core.NewFunction("rosenbrock", 2,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			a := b.Square(b.Sub(b.Const(1), x[0]))
			c := b.Mul(b.Const(100), b.Square(b.Sub(x[1], b.Square(x[0]))))
			return b.Add(a, c)
		})
}

// Sine returns f(x) = sin(x) on [0, π] (the Figure 1 walkthrough function).
func Sine() *core.Function {
	f := core.NewFunction("sin", 1,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref { return b.Sin(x[0]) })
	// |f″| = |sin| ≤ 1 everywhere (recorded against the domain box).
	return f.WithDomain([]float64{0}, []float64{math.Pi}).WithCurvature(1)
}

// Saddle returns f(x) = −x₁² + x₂², the §4.6 ablation function.
func Saddle() *core.Function {
	return core.NewFunction("saddle", 2,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Add(b.Neg(b.Square(x[0])), b.Square(x[1]))
		})
}

// Variance monitors the variance of a scalar signal via the augmentation
// technique of the paper's footnote 3: each node's local vector is the
// window average of the augmented sample [v, v²], so the global average is
// x̄ = [E v, E v²] and
//
//	f(x̄) = x̄₂ − x̄₁² = Var(v).
//
// The Hessian [[−2, 0], [0, 0]] is constant and NSD, so AutoMon selects
// ADCD-E with the concave difference and the approximation guarantee is
// deterministic — the augmentation turns a "function of all samples" into a
// function of the average vector with no manual analysis.
func Variance() *core.Function {
	return core.NewFunction("variance", 2,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Sub(x[1], b.Square(x[0]))
		})
}

// AugmentSquares maps a scalar sample v to the augmented vector [v, v²]
// consumed by Variance.
func AugmentSquares(v float64) []float64 { return []float64{v, v * v} }

// AMSF2 is the §5 sketch-composition query for an AMS sketch with the given
// shape flattened into the local vector: f(x) = (1/rows)·Σ xᵢ², the
// mean-estimator second moment. A positive-semidefinite quadratic form, so
// AutoMon selects ADCD-E and the approximation guarantee is deterministic;
// the constant Hessian also gives check elision its curvature bound for
// free.
func AMSF2(rows, cols int) *core.Function {
	d := rows * cols
	inv := 1.0 / float64(rows)
	return core.NewFunction(fmt.Sprintf("ams-f2-%dx%d", rows, cols), d,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.Mul(b.Const(inv), b.SqNorm(x))
		})
}

// SqNorm returns f(x) = ‖x‖², a convex constant-Hessian sanity function.
func SqNorm(d int) *core.Function {
	return core.NewFunction(fmt.Sprintf("sqnorm-%d", d), d,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref { return b.SqNorm(x) })
}
