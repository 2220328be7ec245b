package core

import (
	"testing"

	"automon/internal/autodiff"
	"automon/internal/obs"
)

// boundedNonConvex builds a 2-d function with a genuinely varying Hessian so
// the backends have something to disagree about: x²·y + sin(x) + 0.1·(x⁴+y⁴).
func boundedNonConvex() *Function {
	return NewFunction("nonconvex", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		q := b.Mul(b.Square(x[0]), x[1])
		s := b.Sin(x[0])
		quart := b.Mul(b.Const(0.1), b.Add(b.Powi(x[0], 4), b.Powi(x[1], 4)))
		return b.Add(q, b.Add(s, quart))
	})
}

func neighborhood(x0 []float64, r float64) (lo, hi []float64) {
	lo = make([]float64, len(x0))
	hi = make([]float64, len(x0))
	for i, v := range x0 {
		lo[i], hi[i] = v-r, v+r
	}
	return lo, hi
}

func TestParseEigBackendRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want EigBackend
		ok   bool
	}{
		{"", BackendLBFGS, true},
		{"lbfgs", BackendLBFGS, true},
		{"interval", BackendInterval, true},
		{"hybrid", BackendHybrid, true},
		{"certified", 0, false},
		{"LBFGS", 0, false},
	}
	for _, c := range cases {
		got, err := ParseEigBackend(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseEigBackend(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseEigBackend(%q) = %v, want %v", c.in, got, c.want)
		}
		if c.ok && c.in != "" {
			if got.String() != c.in {
				t.Errorf("round-trip %q -> %v -> %q", c.in, got, got.String())
			}
		}
	}
	if BackendLBFGS.String() != "lbfgs" {
		t.Errorf("zero value String() = %q, want lbfgs", BackendLBFGS.String())
	}
	if EigBackend(99).String() == "" {
		t.Error("unknown backend String() empty")
	}
}

// TestIntervalBackendZeroOptEvals is the acceptance-criterion counter check:
// the interval backend must perform zero eigensolver evaluations inside the
// optimizer (the single x0 solve every backend needs is counted separately).
func TestIntervalBackendZeroOptEvals(t *testing.T) {
	f := boundedNonConvex()
	x0 := []float64{0.4, -0.3}
	lo, hi := neighborhood(x0, 0.25)

	for _, tc := range []struct {
		backend  EigBackend
		wantZero bool
	}{
		{BackendInterval, true},
		{BackendLBFGS, false},
	} {
		opt := obs.NewCounter()
		all := obs.NewCounter()
		dec, err := DecomposeX(f, x0, lo, hi, DecompOptions{
			Backend:         tc.backend,
			Seed:            1,
			OptEvalCounter:  opt,
			EigsolveCounter: all,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.backend, err)
		}
		if dec.Backend != tc.backend {
			t.Errorf("dec.Backend = %v, want %v", dec.Backend, tc.backend)
		}
		if tc.wantZero {
			if got := opt.Load(); got != 0 {
				t.Errorf("interval backend ran %d optimizer eigensolves, want 0", got)
			}
			if got := all.Load(); got != 1 {
				t.Errorf("interval backend ran %d total eigensolves, want exactly the x0 solve", got)
			}
			if !dec.Certified {
				t.Error("interval decomposition not marked Certified")
			}
		} else {
			if got := opt.Load(); got == 0 {
				t.Error("L-BFGS backend reported zero optimizer eigensolves")
			}
			if dec.Certified {
				t.Error("L-BFGS decomposition marked Certified")
			}
		}
	}
}

// TestIntervalEnclosesLBFGS: on the same box the certificate must enclose
// whatever the sampling-based search found (the search only visits real
// points of the box, and the certificate bounds all of them).
func TestIntervalEnclosesLBFGS(t *testing.T) {
	f := boundedNonConvex()
	for _, r := range []float64{0.05, 0.2, 0.5} {
		x0 := []float64{0.4, -0.3}
		lo, hi := neighborhood(x0, r)
		lb, err := DecomposeX(f, x0, lo, hi, DecompOptions{Backend: BackendLBFGS, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		iv, err := DecomposeX(f, x0, lo, hi, DecompOptions{Backend: BackendInterval, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Compare through the Lemma-1 artifacts both paths populate.
		if iv.LamAbsNeg < lb.LamAbsNeg {
			t.Errorf("r=%v: certified |λ⁻min| %v below L-BFGS %v", r, iv.LamAbsNeg, lb.LamAbsNeg)
		}
		if iv.LamPosMax < lb.LamPosMax {
			t.Errorf("r=%v: certified λ⁺max %v below L-BFGS %v", r, iv.LamPosMax, lb.LamPosMax)
		}
	}
}

func TestHybridEscalation(t *testing.T) {
	f := boundedNonConvex()
	x0 := []float64{0.4, -0.3}

	// A wide box makes the certificate much looser than the x0 spread, so the
	// default threshold escalates to the L-BFGS refinement.
	lo, hi := neighborhood(x0, 1.5)
	opt := obs.NewCounter()
	dec, err := DecomposeX(f, x0, lo, hi, DecompOptions{
		Backend:        BackendHybrid,
		Seed:           1,
		OptEvalCounter: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Certified {
		t.Error("hybrid decomposition lost its certificate")
	}
	if !dec.Refined {
		t.Error("hybrid did not escalate on a wide box")
	}
	if opt.Load() == 0 {
		t.Error("hybrid refinement reported zero optimizer eigensolves")
	}
	// The refined Lemma-1 bounds stay inside the certificate.
	if -dec.LamAbsNeg < dec.CertMin-1e-12 || dec.LamPosMax > dec.CertMax+1e-12 {
		t.Errorf("refined bounds [-%v, %v] escape certificate [%v, %v]",
			dec.LamAbsNeg, dec.LamPosMax, dec.CertMin, dec.CertMax)
	}

	// A tight box keeps the certificate within hybridSlack of the x0 spread:
	// certificate only, no optimizer work.
	lo, hi = neighborhood(x0, 0.01)
	opt = obs.NewCounter()
	dec, err = DecomposeX(f, x0, lo, hi, DecompOptions{
		Backend:        BackendHybrid,
		Seed:           1,
		OptEvalCounter: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Certified || dec.Refined {
		t.Errorf("hybrid on a tight box: certified=%v refined=%v, want the bare certificate", dec.Certified, dec.Refined)
	}
	if got := opt.Load(); got != 0 {
		t.Errorf("unescalated hybrid still ran %d optimizer eigensolves", got)
	}
}

func TestBounderForUnknownFallsBack(t *testing.T) {
	if b := BounderFor(EigBackend(42)); b.Backend() != BackendLBFGS {
		t.Errorf("unknown backend resolved to %v, want lbfgs", b.Backend())
	}
	for _, want := range []EigBackend{BackendLBFGS, BackendInterval, BackendHybrid} {
		if got := BounderFor(want).Backend(); got != want {
			t.Errorf("BounderFor(%v).Backend() = %v", want, got)
		}
	}
}

// TestQuantizeKeyBackendSeparation: cache keys from different backends must
// never collide — an L-BFGS estimate is not a certificate.
func TestQuantizeKeyBackendSeparation(t *testing.T) {
	x0 := []float64{1.23, -4.56}
	backends := []EigBackend{BackendLBFGS, BackendInterval, BackendHybrid}
	seen := make(map[string]EigBackend, len(backends))
	for _, b := range backends {
		k, ok := quantizeKey(b, x0, 0.5)
		if !ok {
			t.Fatalf("backend %v: finite inputs failed to quantize", b)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("backends %v and %v share cache key %q", prev, b, k)
		}
		seen[k] = b
	}
	// Same backend, same inputs: still a stable key.
	a, _ := quantizeKey(BackendInterval, x0, 0.5)
	b, _ := quantizeKey(BackendInterval, x0, 0.5)
	if a != b {
		t.Errorf("key not deterministic: %q vs %q", a, b)
	}
}
