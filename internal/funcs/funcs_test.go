package funcs

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/linalg"
	"automon/internal/nn"
)

// extremeEigenvalues returns the smallest and largest eigenvalue of
// symmetric h.
func extremeEigenvalues(h *linalg.Mat) (lo, hi float64, err error) {
	v, err := linalg.EigenvaluesSym(h)
	if err != nil {
		return 0, 0, err
	}
	return v[0], v[len(v)-1], nil
}

func TestInnerProduct(t *testing.T) {
	f := InnerProduct(3)
	if f.Dim() != 6 {
		t.Fatalf("dim = %d", f.Dim())
	}
	got := f.Value([]float64{1, 2, 3, 4, 5, 6})
	if got != 32 {
		t.Fatalf("value = %v, want 32", got)
	}
	if !f.HasConstantHessian() {
		t.Fatal("inner product must report a constant Hessian (ADCD-E)")
	}
}

func TestInnerProductHessianIsPermutation(t *testing.T) {
	// H of ⟨u, v⟩ is [[0, I], [I, 0]]: eigenvalues ±1.
	f := InnerProduct(2)
	h := linalg.NewMat(4, 4)
	f.Hessian([]float64{0.3, -0.7, 1.2, 0.4}, h)
	lo, hi, err := extremeEigenvalues(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo+1) > 1e-9 || math.Abs(hi-1) > 1e-9 {
		t.Fatalf("eigs = (%v, %v), want (−1, 1)", lo, hi)
	}
}

func TestQuadraticForm(t *testing.T) {
	q := linalg.NewMat(2, 2)
	copy(q.Data, []float64{1, 2, 0, 3})
	f := QuadraticForm(q)
	x := []float64{1, 2}
	// xᵀQx = 1 + 2·2 + 0 + 3·4 = 17
	if got := f.Value(x); got != 17 {
		t.Fatalf("value = %v, want 17", got)
	}
	if !f.HasConstantHessian() {
		t.Fatal("quadratic form must report constant Hessian")
	}
	// Hessian must equal Q + Qᵀ.
	h := linalg.NewMat(2, 2)
	f.Hessian(x, h)
	want := [][]float64{{2, 2}, {2, 6}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(h.At(i, j)-want[i][j]) > 1e-9 {
				t.Fatalf("H[%d,%d] = %v, want %v", i, j, h.At(i, j), want[i][j])
			}
		}
	}
}

func TestRandomQuadraticDeterministic(t *testing.T) {
	a := RandomQuadratic(4, 7)
	b := RandomQuadratic(4, 7)
	x := []float64{1, -1, 0.5, 2}
	if a.Value(x) != b.Value(x) {
		t.Fatal("RandomQuadratic not deterministic for equal seeds")
	}
}

func TestKLD(t *testing.T) {
	f := KLD(2, 0.01)
	if f.Dim() != 4 {
		t.Fatalf("dim = %d", f.Dim())
	}
	// KLD(p‖p) = 0.
	if got := f.Value([]float64{0.5, 0.5, 0.5, 0.5}); math.Abs(got) > 1e-12 {
		t.Fatalf("KLD(p‖p) = %v, want 0", got)
	}
	// Reference: Σ (p+τ)log((p+τ)/(q+τ)).
	p := []float64{0.8, 0.2}
	q := []float64{0.3, 0.7}
	var want float64
	for i := range p {
		want += (p[i] + 0.01) * math.Log((p[i]+0.01)/(q[i]+0.01))
	}
	if got := f.Value([]float64{0.8, 0.2, 0.3, 0.7}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("KLD = %v, want %v", got, want)
	}
	if f.HasConstantHessian() {
		t.Fatal("KLD must not report a constant Hessian")
	}
	if f.DomainLo == nil || f.DomainLo[0] != 0 || f.DomainHi[0] != 1 {
		t.Fatal("KLD domain must be the unit box")
	}
}

func TestKLDIsConvex(t *testing.T) {
	// λmin(H) ≥ 0 at random interior points — this is what gives AutoMon its
	// deterministic guarantee for KLD.
	f := KLD(3, 0.05)
	rng := rand.New(rand.NewSource(1))
	h := linalg.NewMat(6, 6)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 6)
		for i := range x {
			x[i] = 0.05 + 0.9*rng.Float64()
		}
		f.Hessian(x, h)
		lo, _, err := extremeEigenvalues(h)
		if err != nil {
			t.Fatal(err)
		}
		if lo < -1e-9 {
			t.Fatalf("KLD Hessian not PSD at %v: λmin = %v", x, lo)
		}
	}
}

func TestEntropyIsConcave(t *testing.T) {
	f := Entropy(4, 0.05)
	rng := rand.New(rand.NewSource(2))
	h := linalg.NewMat(4, 4)
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = 0.05 + 0.9*rng.Float64()
		}
		f.Hessian(x, h)
		_, hi, err := extremeEigenvalues(h)
		if err != nil {
			t.Fatal(err)
		}
		if hi > 1e-9 {
			t.Fatalf("entropy Hessian not NSD at %v: λmax = %v", x, hi)
		}
	}
}

// forward evaluates net's scalar output directly from its weights: the
// reference the AD graph that Network builds is checked against.
func forward(net *nn.Network, x []float64) float64 {
	a := x
	for _, l := range net.Layers {
		next := make([]float64, l.Out)
		for i := range next {
			s := l.B[i] + linalg.Dot(l.W[i], a)
			switch l.Act {
			case nn.ReLU:
				s = math.Max(s, 0)
			case nn.Tanh:
				s = math.Tanh(s)
			case nn.Sigmoid:
				s = 1 / (1 + math.Exp(-s))
			}
			next[i] = s
		}
		a = next
	}
	return a[0]
}

func TestNetworkMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := nn.New(rng, []int{3, 5, 4, 1}, []nn.Activation{nn.ReLU, nn.Tanh, nn.Sigmoid})
	if err != nil {
		t.Fatal(err)
	}
	f := Network("test-net", net)
	for trial := 0; trial < 50; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		want := forward(net, x)
		if got := f.Value(x); math.Abs(got-want) > 1e-10 {
			t.Fatalf("AD network disagrees with the dense forward pass: %v vs %v", got, want)
		}
	}
	if f.HasConstantHessian() {
		t.Fatal("a nonlinear network must not report constant Hessian")
	}
}

func TestTrainMLPApproximatesTarget(t *testing.T) {
	f, err := TrainMLP(2, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var sumSq, count float64
	for trial := 0; trial < 200; trial++ {
		x := []float64{-2 + 4*rng.Float64(), -2 + 4*rng.Float64()}
		diff := f.Value(x) - MLPTarget(x)
		sumSq += diff * diff
		count++
	}
	rmse := math.Sqrt(sumSq / count)
	if rmse > 0.2 {
		t.Fatalf("MLP-2 RMSE vs target = %v, want < 0.2", rmse)
	}
}

func TestCosineSimilarity(t *testing.T) {
	f := CosineSimilarity(3)
	// Parallel vectors → 1; orthogonal → 0; antiparallel → −1.
	if got := f.Value([]float64{1, 2, 3, 2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("parallel cosine = %v", got)
	}
	if got := f.Value([]float64{1, 0, 0, 0, 1, 0}); math.Abs(got) > 1e-12 {
		t.Fatalf("orthogonal cosine = %v", got)
	}
	if got := f.Value([]float64{1, 1, 1, -1, -1, -1}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("antiparallel cosine = %v", got)
	}
	if f.HasConstantHessian() {
		t.Fatal("cosine similarity must use ADCD-X")
	}
	// Gradient sanity via finite differences.
	x := []float64{0.5, -0.2, 0.9, 0.3, 0.8, -0.4}
	grad := make([]float64, 6)
	f.Grad(x, grad)
	for i := range x {
		const h = 1e-6
		xp := append([]float64(nil), x...)
		xp[i] += h
		fp := f.Value(xp)
		xp[i] = x[i] - h
		fm := f.Value(xp)
		want := (fp - fm) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-5 {
			t.Fatalf("cosine grad[%d] = %v, want %v", i, grad[i], want)
		}
	}
}

func TestLogistic(t *testing.T) {
	f := Logistic([]float64{2, -1}, 0.5)
	x := []float64{0.3, 0.8}
	want := 1 / (1 + math.Exp(-(2*0.3 - 0.8 + 0.5)))
	if got := f.Value(x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("logistic = %v, want %v", got, want)
	}
	if f.HasConstantHessian() {
		t.Fatal("logistic output is not quadratic")
	}
}

// TestAMSF2Function pins the query's value and name, and that its constant
// Hessian gives ADCD-E and check elision a curvature bound. That it equals
// the sketch's own F2 estimate is sketch's TestQueryFamily.
func TestAMSF2Function(t *testing.T) {
	f := AMSF2(2, 3)
	// f = (x₁²+...+x₆²)/2.
	if got := f.Value([]float64{1, 2, 0, 0, 1, 1}); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("AMSF2 = %v, want 3.5", got)
	}
	if !f.HasConstantHessian() {
		t.Fatal("AMSF2 must have a constant Hessian (ADCD-E)")
	}
	if _, _, ok := f.CurvBound(); !ok {
		t.Fatal("AMSF2 must expose an automatic curvature bound")
	}
	if f.Name != "ams-f2-2x3" {
		t.Fatalf("name %q, want ams-f2-2x3", f.Name)
	}
}

func TestVarianceAugmentation(t *testing.T) {
	f := Variance()
	if !f.HasConstantHessian() {
		t.Fatal("variance must report a constant Hessian (ADCD-E)")
	}
	// Aggregate augmented samples by hand: values {1, 2, 3, 4} have
	// variance 1.25.
	vals := []float64{1, 2, 3, 4}
	avg := []float64{0, 0}
	for _, v := range vals {
		a := AugmentSquares(v)
		avg[0] += a[0] / 4
		avg[1] += a[1] / 4
	}
	if got := f.Value(avg); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("variance = %v, want 1.25", got)
	}
	// NSD Hessian ⇒ the concave-difference guarantee path applies.
	h := linalg.NewMat(2, 2)
	f.Hessian(avg, h)
	if h.At(0, 0) != -2 || h.At(1, 1) != 0 || h.At(0, 1) != 0 {
		t.Fatalf("variance Hessian = %v", h.Data)
	}
}

func TestRosenbrockSineSaddle(t *testing.T) {
	if got := Rosenbrock().Value([]float64{1, 1}); got != 0 {
		t.Fatalf("rosenbrock(1,1) = %v", got)
	}
	if got := Sine().Value([]float64{math.Pi / 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("sin(π/2) = %v", got)
	}
	if got := Saddle().Value([]float64{2, 3}); got != 5 {
		t.Fatalf("saddle(2,3) = %v, want 5", got)
	}
	if !Saddle().HasConstantHessian() {
		t.Fatal("saddle has constant Hessian")
	}
	if got := SqNorm(3).Value([]float64{1, 2, 2}); got != 9 {
		t.Fatalf("sqnorm = %v", got)
	}
}
