package core

import (
	"fmt"
	"math"
)

// EigBackend selects the engine computing the §3.1 extreme Hessian
// eigenvalue bounds over a neighborhood box.
type EigBackend uint8

const (
	// BackendLBFGS is the paper's engine: projected L-BFGS multi-start over
	// λmin/λmax(H(x)). Tight in practice but unsound — it can miss the global
	// extremum, which the §3.7 faulty-constraint check then catches at
	// runtime.
	BackendLBFGS EigBackend = iota
	// BackendInterval evaluates an interval Hessian enclosure over the box
	// and tightens it to spectral bounds (Gershgorin + scaled Gershgorin +
	// midpoint refinement). Sound by construction, one cheap pass, zero
	// optimizer eigensolves; generally looser than the search.
	BackendInterval
	// BackendHybrid always computes the interval certificate, then refines
	// with the L-BFGS search only when the certificate is loose (see
	// hybridSlack), clipping the refined bounds into the certified interval.
	BackendHybrid
)

// String renders the backend the way the CLI flags spell it.
func (b EigBackend) String() string {
	switch b {
	case BackendLBFGS:
		return "lbfgs"
	case BackendInterval:
		return "interval"
	case BackendHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseEigBackend parses a CLI spelling of an eigen-engine backend.
func ParseEigBackend(s string) (EigBackend, error) {
	switch s {
	case "", "lbfgs":
		return BackendLBFGS, nil
	case "interval":
		return BackendInterval, nil
	case "hybrid":
		return BackendHybrid, nil
	}
	return 0, fmt.Errorf("core: unknown eigen backend %q (want lbfgs, interval or hybrid)", s)
}

// hybridSlack is the hybrid escalation threshold: refine with L-BFGS once the
// certified eigenvalue range is wider than the H(x0) spectral spread by more
// than this (in eigenvalue units — the same units as ε/r-driven thresholds).
const hybridSlack = 1.0

// X0Spectrum carries the extreme eigen-data of H(x0) that DecomposeX has
// already computed for the §3.4 DC heuristic, so bounders can reuse it (the
// L-BFGS engine seeds its per-task memo with it; the hybrid engine measures
// certificate slack against its spread).
type X0Spectrum struct {
	LamMin, LamMax float64
	VMin, VMax     []float64
}

// EigBoundResult is a bounder's answer: the [LamMin, LamMax] handed to
// Lemma 1, plus provenance. When Certified, [CertMin, CertMax] is a sound
// enclosure of every eigenvalue of every H(x) in the box — LamMin/LamMax
// equal the certificate unless a hybrid refinement tightened them inside it.
type EigBoundResult struct {
	LamMin, LamMax   float64
	CertMin, CertMax float64
	Certified        bool
	// Refined reports that a hybrid escalation ran the L-BFGS search.
	Refined bool
}

// EigBounder computes extreme Hessian eigenvalue bounds over a box — the two
// §3.1 quantities λ̂min ≤ min λmin(H(x)) and λ̂max ≥ max λmax(H(x)) (the
// L-BFGS engine approximates them from inside; the interval engine encloses
// them from outside).
type EigBounder interface {
	// Backend identifies the engine (for cache keys and metrics).
	Backend() EigBackend
	// BoundEigs bounds the extreme eigenvalues of H over [bLo, bHi] around
	// x0. x0spec is the already-computed H(x0) spectrum; opts carries the
	// search budget, seed and counters.
	BoundEigs(f *Function, x0, bLo, bHi []float64, x0spec X0Spectrum, opts DecompOptions) (EigBoundResult, error)
}

// BounderFor returns the engine for a backend. Unknown values fall back to
// the default L-BFGS engine, mirroring how the zero Config behaves.
func BounderFor(b EigBackend) EigBounder {
	switch b {
	case BackendInterval:
		return intervalBounder{}
	case BackendHybrid:
		return hybridBounder{}
	}
	return lbfgsBounder{}
}

// lbfgsBounder is the paper's multi-start search, unchanged semantics.
type lbfgsBounder struct{}

func (lbfgsBounder) Backend() EigBackend { return BackendLBFGS }

func (lbfgsBounder) BoundEigs(f *Function, x0, bLo, bHi []float64, x0spec X0Spectrum, opts DecompOptions) (EigBoundResult, error) {
	seed := &eigResult{lamMin: x0spec.LamMin, lamMax: x0spec.LamMax, vMin: x0spec.VMin, vMax: x0spec.VMax}
	lamMin, lamMax, err := extremeEigsOverBox(f, x0, bLo, bHi, opts, seed)
	if err != nil {
		return EigBoundResult{}, err
	}
	return EigBoundResult{LamMin: lamMin, LamMax: lamMax}, nil
}

// intervalBounder is the certified engine: one interval Hessian pass, no
// optimizer eigensolves at all.
type intervalBounder struct{}

func (intervalBounder) Backend() EigBackend { return BackendInterval }

func (intervalBounder) BoundEigs(f *Function, x0, bLo, bHi []float64, x0spec X0Spectrum, opts DecompOptions) (EigBoundResult, error) {
	certMin, certMax, err := f.IntervalEigBounds(bLo, bHi)
	if err != nil {
		return EigBoundResult{}, err
	}
	return EigBoundResult{
		LamMin: certMin, LamMax: certMax,
		CertMin: certMin, CertMax: certMax,
		Certified: true,
	}, nil
}

// hybridBounder escalates from the certificate to the search only when the
// certificate is loose.
type hybridBounder struct{}

func (hybridBounder) Backend() EigBackend { return BackendHybrid }

func (hybridBounder) BoundEigs(f *Function, x0, bLo, bHi []float64, x0spec X0Spectrum, opts DecompOptions) (EigBoundResult, error) {
	res, err := intervalBounder{}.BoundEigs(f, x0, bLo, bHi, x0spec, opts)
	if err != nil {
		return EigBoundResult{}, err
	}
	// Slack = how much wider the certified range is than the pointwise H(x0)
	// spread. A tight certificate costs nothing extra; a loose one (Entire
	// after a division through zero, fat boxes under the dependency problem)
	// is worth one search. An infinite certificate always escalates.
	slack := (res.CertMax - res.CertMin) - (x0spec.LamMax - x0spec.LamMin)
	if math.IsNaN(slack) || slack <= hybridSlack {
		return res, nil
	}
	lb, err := lbfgsBounder{}.BoundEigs(f, x0, bLo, bHi, x0spec, opts)
	if err != nil {
		// The certificate alone is already a valid answer; a search failure
		// (e.g. an eigensolver breakdown at a probe point) degrades to it.
		return res, nil
	}
	// Clip the search result into the certificate: a valid search optimum
	// lies inside it by soundness, so the clamp only ever discards an
	// optimizer excursion that the certificate proves impossible.
	res.LamMin = math.Min(math.Max(lb.LamMin, res.CertMin), res.CertMax)
	res.LamMax = math.Max(math.Min(lb.LamMax, res.CertMax), res.CertMin)
	res.Refined = true
	return res, nil
}
