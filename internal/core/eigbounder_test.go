package core

import (
	"testing"

	"automon/internal/autodiff"
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

// TestIntervalBackendZeroOptEvals is the acceptance-criterion count check:
// the interval backend must perform zero eigensolver evaluations inside the
// optimizer, so its decomposition reports only the x0 solve every backend
// needs.
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
		dec, err := DecomposeX(f, x0, lo, hi, DecompOptions{Backend: tc.backend, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", tc.backend, err)
		}
		if dec.Backend != tc.backend {
			t.Errorf("dec.Backend = %v, want %v", dec.Backend, tc.backend)
		}
		if tc.wantZero {
			if dec.Eigensolves != 1 {
				t.Errorf("interval backend ran %d eigensolves, want exactly the x0 solve", dec.Eigensolves)
			}
			if !dec.Certified {
				t.Error("interval decomposition not marked Certified")
			}
		} else {
			if dec.Eigensolves <= 1 {
				t.Errorf("L-BFGS backend reported %d eigensolves: no optimizer work beyond x0", dec.Eigensolves)
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
	dec, err := DecomposeX(f, x0, lo, hi, DecompOptions{Backend: BackendHybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Certified {
		t.Error("hybrid decomposition lost its certificate")
	}
	if !dec.Refined {
		t.Error("hybrid did not escalate on a wide box")
	}
	if dec.Eigensolves <= 1 {
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
	dec, err = DecomposeX(f, x0, lo, hi, DecompOptions{Backend: BackendHybrid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Certified || dec.Refined {
		t.Errorf("hybrid on a tight box: certified=%v refined=%v, want the bare certificate", dec.Certified, dec.Refined)
	}
	if got := dec.Eigensolves - 1; got != 0 {
		t.Errorf("unescalated hybrid still ran %d optimizer eigensolves", got)
	}
}

// TestBounderForUnknownFallsBack: an unknown backend value gets the L-BFGS
// engine, identified by what it answers — the search's bounds and cost, no
// certificate — and each known value gets its own engine.
func TestBounderForUnknownFallsBack(t *testing.T) {
	f := boundedNonConvex()
	x0 := []float64{0.4, -0.3}
	lo, hi := neighborhood(x0, 0.25)
	lm, lM, vMin, vMax, err := f.ExtremeEigsAt(x0)
	if err != nil {
		t.Fatal(err)
	}
	spec := X0Spectrum{LamMin: lm, LamMax: lM, VMin: vMin, VMax: vMax}
	bound := func(b EigBackend) EigBoundResult {
		t.Helper()
		res, err := BounderFor(b).BoundEigs(f, x0, lo, hi, spec, DecompOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		return res
	}
	lbfgs := bound(BackendLBFGS)
	if lbfgs.Certified || lbfgs.Eigensolves == 0 {
		t.Fatalf("L-BFGS engine answered %+v, want an uncertified search", lbfgs)
	}
	if got := bound(EigBackend(42)); got != lbfgs {
		t.Errorf("unknown backend answered %+v, want the L-BFGS engine's %+v", got, lbfgs)
	}
	if got := bound(BackendInterval); !got.Certified || got.Eigensolves != 0 {
		t.Errorf("interval engine answered %+v, want a certificate with no eigensolves", got)
	}
	if _, ok := BounderFor(BackendHybrid).(hybridBounder); !ok {
		t.Errorf("BounderFor(hybrid) = %T, want hybridBounder", BounderFor(BackendHybrid))
	}
}
