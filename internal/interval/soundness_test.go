package interval_test

// The soundness property harness behind the certified eigen-engine: for
// every constructor in the internal/funcs zoo, random neighborhood boxes are
// drawn inside the function's safe region and ≥ 1e4 points are sampled per
// box; the exact Hessian eigenvalues at every sampled point must lie inside
// the certified [λ̂min, λ̂max] the interval engine produces for the box — with
// zero tolerance, because the claim under test is "certified", not "usually
// right". Everything is seed-deterministic (seeds derive from the entry
// name), and a failure is shrunk: the box is bisected toward the escaping
// point until the violation is minimal, then reported as a (function, box,
// point) triple at full precision.

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
)

const (
	samplesPerBox = 10000
	boxesPerFunc  = 3
)

// entry is one zoo member with the region boxes are drawn from. The region
// stays inside the function's domain and away from genuine singularities
// (cosine's zero norm): a box containing a singularity certifies [−∞, +∞],
// which is sound but exercises nothing.
type entry struct {
	name   string
	f      *core.Function
	lo, hi []float64
}

// extremeEigenvalues returns the smallest and largest eigenvalue of
// symmetric h.
func extremeEigenvalues(h *linalg.Mat) (lo, hi float64, err error) {
	v, err := linalg.EigenvaluesSym(h)
	if err != nil {
		return 0, 0, err
	}
	return v[0], v[len(v)-1], nil
}

func box(d int, lo, hi float64) (l, h []float64) {
	l = make([]float64, d)
	h = make([]float64, d)
	for i := 0; i < d; i++ {
		l[i], h[i] = lo, hi
	}
	return l, h
}

// zoo lists every funcs constructor at a small, fast dimension.
func zoo(t *testing.T) []entry {
	t.Helper()
	mlp, err := funcs.TrainMLP(2, 1)
	if err != nil {
		t.Fatalf("training MLP-2: %v", err)
	}
	q := linalg.NewMat(3, 3)
	vals := []float64{1, 0.5, -0.25, 0, -1, 0.75, 0.25, 0, 2}
	copy(q.Data, vals)
	mk := func(name string, f *core.Function, lo, hi float64) entry {
		l, h := box(f.Dim(), lo, hi)
		return entry{name: name, f: f, lo: l, hi: h}
	}
	return []entry{
		mk("inner-product", funcs.InnerProduct(2), -2, 2),
		mk("quadratic-form", funcs.QuadraticForm(q), -2, 2),
		mk("random-quadratic", funcs.RandomQuadratic(3, 1), -2, 2),
		mk("kld", funcs.KLD(2, 0.5), 0, 1),
		mk("entropy", funcs.Entropy(3, 0.1), 0, 1),
		mk("mlp-2", mlp, -2, 2),
		mk("cosine", funcs.CosineSimilarity(2), 0.3, 2),
		mk("logistic", funcs.Logistic([]float64{1, -0.5, 0.25}, -0.1), -2, 2),
		mk("rosenbrock", funcs.Rosenbrock(), -2, 2),
		mk("sine", funcs.Sine(), 0, math.Pi),
		mk("saddle", funcs.Saddle(), -2, 2),
		mk("variance", funcs.Variance(), -2, 2),
		mk("ams-f2", funcs.AMSF2(2, 3), -1, 1),
		mk("sqnorm", funcs.SqNorm(3), -2, 2),
	}
}

// seedFor derives the per-entry deterministic seed from the entry name, so
// adding or reordering entries never changes another entry's samples.
func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & math.MaxInt64)
}

// drawBox samples a random box inside the entry's region: uniform center,
// radius 2%–30% of the region span per coordinate, clipped to the region.
func drawBox(rng *rand.Rand, en entry) (lo, hi []float64) {
	d := en.f.Dim()
	lo = make([]float64, d)
	hi = make([]float64, d)
	r := 0.02 + 0.28*rng.Float64()
	for i := 0; i < d; i++ {
		span := en.hi[i] - en.lo[i]
		c := en.lo[i] + rng.Float64()*span
		lo[i] = math.Max(en.lo[i], c-r*span)
		hi[i] = math.Min(en.hi[i], c+r*span)
	}
	return lo, hi
}

// shrink bisects the failing box toward the escaping point while the
// violation persists, returning the smallest box still certifying bounds the
// sampled eigenvalues escape.
func shrink(t *testing.T, f *core.Function, lo, hi, x []float64, emin, emax float64) (sLo, sHi []float64, lamMin, lamMax float64) {
	t.Helper()
	sLo = append([]float64(nil), lo...)
	sHi = append([]float64(nil), hi...)
	lamMin, lamMax, err := f.IntervalEigBounds(sLo, sHi)
	if err != nil {
		t.Fatalf("shrink: bounds on original box: %v", err)
	}
	for round := 0; round < 60; round++ {
		nLo := make([]float64, len(x))
		nHi := make([]float64, len(x))
		for i := range x {
			nLo[i] = x[i] - 0.5*(x[i]-sLo[i])
			nHi[i] = x[i] + 0.5*(sHi[i]-x[i])
		}
		nMin, nMax, err := f.IntervalEigBounds(nLo, nHi)
		if err != nil || !(emin < nMin || emax > nMax) {
			return sLo, sHi, lamMin, lamMax // violation vanished; previous box is minimal
		}
		sLo, sHi, lamMin, lamMax = nLo, nHi, nMin, nMax
	}
	return sLo, sHi, lamMin, lamMax
}

func TestSoundnessHarness(t *testing.T) {
	for _, en := range zoo(t) {
		en := en
		t.Run(en.name, func(t *testing.T) {
			t.Parallel()
			d := en.f.Dim()
			rng := rand.New(rand.NewSource(seedFor(en.name)))
			h := linalg.NewMat(d, d)
			x := make([]float64, d)
			for b := 0; b < boxesPerFunc; b++ {
				lo, hi := drawBox(rng, en)
				lamMin, lamMax, err := en.f.IntervalEigBounds(lo, hi)
				if err != nil {
					t.Fatalf("box %d: certified bounds: %v", b, err)
				}
				for s := 0; s < samplesPerBox; s++ {
					for i := 0; i < d; i++ {
						x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
					}
					en.f.Hessian(x, h)
					emin, emax, err := extremeEigenvalues(h)
					if err != nil {
						t.Fatalf("box %d sample %d: exact eigensolve: %v", b, s, err)
					}
					if emin < lamMin || emax > lamMax {
						sLo, sHi, sMin, sMax := shrink(t, en.f, lo, hi, x, emin, emax)
						t.Fatalf("sampled eigenvalues escape the certificate\n"+
							"  f      = %s (box %d, sample %d)\n"+
							"  box    = [%.17g,\n            %.17g]\n"+
							"  x      = %.17g\n"+
							"  eigs   = [%.17g, %.17g]\n"+
							"  bounds = [%.17g, %.17g] (shrunk box [%.17g, %.17g])",
							en.name, b, s, lo, hi, x, emin, emax, sMin, sMax, sLo, sHi)
					}
				}
			}
		})
	}
}

// TestCertificateEnclosesX0Spectrum pins the cheapest corollary: the
// certificate for any box containing x0 encloses the exact H(x0) spectrum.
func TestCertificateEnclosesX0Spectrum(t *testing.T) {
	for _, en := range zoo(t) {
		en := en
		t.Run(en.name, func(t *testing.T) {
			d := en.f.Dim()
			rng := rand.New(rand.NewSource(seedFor(en.name) + 1))
			h := linalg.NewMat(d, d)
			for trial := 0; trial < 50; trial++ {
				x := make([]float64, d)
				for i := 0; i < d; i++ {
					x[i] = en.lo[i] + rng.Float64()*(en.hi[i]-en.lo[i])
				}
				lamMin, lamMax, err := en.f.IntervalEigBounds(x, x)
				if err != nil {
					t.Fatal(err)
				}
				en.f.Hessian(x, h)
				emin, emax, err := extremeEigenvalues(h)
				if err != nil {
					t.Fatal(err)
				}
				if emin < lamMin || emax > lamMax {
					t.Fatalf("point-box certificate [%v, %v] misses exact spectrum [%v, %v] at %v",
						lamMin, lamMax, emin, emax, x)
				}
			}
		})
	}
}
