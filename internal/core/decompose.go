package core

import (
	"fmt"
	"math"
	"math/rand"

	"automon/internal/linalg"
	"automon/internal/obs"
	"automon/internal/optimize"
)

// DecompOptions configure the ADCD decomposition step.
type DecompOptions struct {
	// OptStarts is the number of multi-start points for the eigenvalue
	// search (default 2: x0 plus one random point in B).
	OptStarts int
	// OptMaxIter caps L-BFGS iterations per start (default 40).
	OptMaxIter int
	// OptMaxFunEvals caps objective evaluations per start (default 400).
	OptMaxFunEvals int
	// Seed makes the multi-start reproducible.
	Seed int64
	// Workers bounds the goroutines running the λ̂min/λ̂max searches and
	// their multi-starts. 0 means one worker per core (GOMAXPROCS); 1 runs
	// sequentially. The start points are pre-drawn from Seed and the best
	// result is selected in start order, so the outcome is bit-identical at
	// every worker count.
	Workers int
	// EigsolveCounter, when non-nil, is incremented once per
	// Function.ExtremeEigsAt solve. Memo hits are not counted — the counter
	// measures actual solver work.
	EigsolveCounter *obs.Counter
	// Backend selects the eigen-engine bounding the extreme eigenvalues over
	// the neighborhood box: the default L-BFGS multi-start search, the
	// certified interval engine, or the hybrid (see EigBackend).
	Backend EigBackend
	// OptEvalCounter, when non-nil, counts eigensolver evaluations performed
	// *inside* the L-BFGS search (the x0 solve every backend needs for the
	// §3.4 heuristic is excluded). BackendInterval leaves it untouched —
	// that zero is the "no optimizer work" claim, counter-verified.
	OptEvalCounter *obs.Counter

	// noEvalMemo is a test hook: it turns off the per-search eigensolve
	// memoization (always on otherwise) so tests can measure what the memo
	// saves.
	noEvalMemo bool
}

func (o *DecompOptions) defaults() {
	if o.OptStarts <= 0 {
		o.OptStarts = 2
	}
	if o.OptMaxIter <= 0 {
		o.OptMaxIter = 40
	}
	if o.OptMaxFunEvals <= 0 {
		o.OptMaxFunEvals = 400
	}
}

// EDecomposition holds the one-time ADCD-E artifacts for a constant-Hessian
// function: the extreme eigenvalues, the DC kind they select, and the part
// of the split H = H⁻ + H⁺ that kind uses (H⁻ for ConvexDiff, H⁺ for
// ConcaveDiff), as eigenpairs.
type EDecomposition struct {
	H              *linalg.EigFactor
	LamMin, LamMax float64
	Kind           DCKind
}

// DecomposeE computes the ADCD-E decomposition (Lemma 2). It must only be
// called for functions with constant Hessians; the Hessian is evaluated at
// x0 (any point gives the same matrix).
func DecomposeE(f *Function, x0 []float64) (*EDecomposition, error) {
	d := f.Dim()
	h := linalg.NewMat(d, d)
	f.Hessian(x0, h)
	values, vecs, err := linalg.EigenSym(h, true)
	if err != nil {
		return nil, fmt.Errorf("core: ADCD-E eigendecomposition: %w", err)
	}
	dec := &EDecomposition{LamMin: values[0], LamMax: values[d-1]}
	dec.Kind = chooseKindE(dec.LamMin, dec.LamMax)
	minus, plus := linalg.SplitEig(values, vecs)
	dec.H = minus
	if dec.Kind == ConcaveDiff {
		dec.H = plus
	}
	return dec, nil
}

// eigsAtFunc returns the extreme-eigenpair evaluator (Function.ExtremeEigsAt),
// wrapped so every actual solver invocation bumps opts.EigsolveCounter.
// Memoization layers above call this only on cache misses, which is exactly
// what the counter should measure.
func eigsAtFunc(f *Function, opts DecompOptions) func(x []float64) (float64, float64, []float64, []float64, error) {
	counter := opts.EigsolveCounter
	return func(x []float64) (float64, float64, []float64, []float64, error) {
		counter.Inc()
		return f.ExtremeEigsAt(x)
	}
}

// eigCacheSize is the ring capacity of the per-task eigensolve memo. The
// L-BFGS line search may probe a few points between consecutive gradient
// calls (Armijo expansion keeps going past the accepted point), so a
// last-point cache alone misses some objective/gradient pairs; a handful of
// entries covers the expansion window.
const eigCacheSize = 4

type eigResult struct {
	lamMin, lamMax float64
	vMin, vMax     []float64
}

// eigEvaluator computes extreme Hessian eigenpairs with a small keyed memo
// so the objective and gradient closures of one optimization task share
// eigendecompositions instead of recomputing them at the same point (the
// optimizer evaluates f and ∇f back-to-back at identical points). Every task
// owns a private evaluator — no locks, no shared scratch, no data races.
type eigEvaluator struct {
	f      *Function
	eigsAt func(x []float64) (float64, float64, []float64, []float64, error)
	memo   bool

	keys [eigCacheSize][]float64
	vals [eigCacheSize]eigResult
	n    int // valid entries
	next int // ring write position

	err error // first eigensolver failure, sticky
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //automon:allow nofloateq memo-key identity must be bitwise: only an exact hit may reuse a cached eigensolve
			return false
		}
	}
	return true
}

// seed pre-populates the memo with a known eigenpair (typically at x0, which
// both searches evaluate first).
func (e *eigEvaluator) seed(x []float64, r eigResult) {
	if !e.memo {
		return
	}
	e.store(x, r)
}

func (e *eigEvaluator) store(x []float64, r eigResult) {
	if e.keys[e.next] == nil {
		e.keys[e.next] = make([]float64, len(x))
	}
	copy(e.keys[e.next], x)
	e.vals[e.next] = r
	e.next = (e.next + 1) % eigCacheSize
	if e.n < eigCacheSize {
		e.n++
	}
}

// at returns the extreme eigenpairs of H(x), from the memo when possible.
// On solver failure it records the first error and reports ok=false; the
// closures then degrade exactly like the pre-memo implementation (+Inf
// objective, zero gradient) and the caller surfaces e.err afterwards.
func (e *eigEvaluator) at(x []float64) (eigResult, bool) {
	if e.memo {
		for i := 0; i < e.n; i++ {
			if floatsEqual(e.keys[i], x) {
				return e.vals[i], true
			}
		}
	}
	lamMin, lamMax, vMin, vMax, err := e.eigsAt(x)
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return eigResult{}, false
	}
	r := eigResult{lamMin: lamMin, lamMax: lamMax, vMin: vMin, vMax: vMax}
	if e.memo {
		e.store(x, r)
	}
	return r, true
}

func (e *eigEvaluator) minObjective(x []float64) float64 {
	r, ok := e.at(x)
	if !ok {
		return math.Inf(1)
	}
	return r.lamMin
}

func (e *eigEvaluator) minGradient(x, g []float64) {
	r, ok := e.at(x)
	if !ok {
		for i := range g {
			g[i] = 0
		}
		return
	}
	e.f.EigGrad(x, r.vMin, g)
}

func (e *eigEvaluator) maxObjective(x []float64) float64 {
	r, ok := e.at(x)
	if !ok {
		return math.Inf(1)
	}
	return -r.lamMax
}

func (e *eigEvaluator) maxGradient(x, g []float64) {
	r, ok := e.at(x)
	if !ok {
		for i := range g {
			g[i] = 0
		}
		return
	}
	e.f.EigGrad(x, r.vMax, g)
	for i := range g {
		g[i] = -g[i]
	}
}

// ExtremeEigsOverBox solves the two §3.1 optimization problems
//
//	λ̂min = min_{x∈B} λmin(H(x)),   λ̂max = max_{x∈B} λmax(H(x))
//
// using projected L-BFGS with the analytic Hellmann–Feynman gradient and
// multi-start. Like the SciPy solver in the paper, it may return local
// optima; the protocol's sanity check (§3.7) guards against that.
//
// All 2·OptStarts searches run on a worker pool bounded by opts.Workers,
// each with a private eigensolve memo. Start points are pre-drawn from Seed
// in the order the sequential implementation consumed them and the best
// result per search is picked in start order, so the returned bounds are
// bit-identical at every worker count.
func ExtremeEigsOverBox(f *Function, x0, lo, hi []float64, opts DecompOptions) (lamMin, lamMax float64, err error) {
	opts.defaults()
	return extremeEigsOverBox(f, x0, lo, hi, opts, nil)
}

func extremeEigsOverBox(f *Function, x0, lo, hi []float64, opts DecompOptions, seedAtX0 *eigResult) (lamMin, lamMax float64, err error) {
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	eigsAt := eigsAtFunc(f, opts)
	if opts.OptEvalCounter != nil {
		// Count search-driven eigensolves separately from the total: memo
		// layers sit above this closure, so only actual solver work lands here.
		inner := eigsAt
		counter := opts.OptEvalCounter
		eigsAt = func(x []float64) (float64, float64, []float64, []float64, error) {
			counter.Inc()
			return inner(x)
		}
	}
	nStarts := opts.OptStarts

	// Pre-draw the multi-start points in the legacy order (min-search extras
	// first, then max-search extras) so the rng stream — and therefore every
	// result — matches the sequential implementation for a fixed Seed.
	drawExtras := func() [][]float64 {
		pts := make([][]float64, 0, nStarts)
		pts = append(pts, linalg.Clone(x0))
		for s := 1; s < nStarts; s++ {
			pt := make([]float64, len(x0))
			for i := range pt {
				pt[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			pts = append(pts, pt)
		}
		return pts
	}
	minStarts := drawExtras()
	maxStarts := drawExtras()

	optOpts := optimize.Options{
		MaxIter:   opts.OptMaxIter,
		MaxFunEva: opts.OptMaxFunEvals,
		GradTol:   1e-5,
	}
	evals := make([]*eigEvaluator, 0, 2*nStarts)
	tasks := make([]optimize.Task, 0, 2*nStarts)
	addTask := func(start []float64, min bool) {
		ev := &eigEvaluator{f: f, eigsAt: eigsAt, memo: !opts.noEvalMemo}
		if seedAtX0 != nil {
			ev.seed(x0, *seedAtX0)
		}
		t := optimize.Task{X0: start, Opts: optOpts}
		if min {
			t.F = ev.minObjective
			t.Opts.Gradient = ev.minGradient
		} else {
			t.F = ev.maxObjective
			t.Opts.Gradient = ev.maxGradient
		}
		evals = append(evals, ev)
		tasks = append(tasks, t)
	}
	for _, start := range minStarts {
		addTask(start, true)
	}
	for _, start := range maxStarts {
		addTask(start, false)
	}

	results, err := optimize.RunConcurrent(tasks, lo, hi, opts.Workers)
	if err != nil {
		return 0, 0, err
	}
	for _, ev := range evals {
		if ev.err != nil {
			return 0, 0, ev.err
		}
	}
	// Best per search by strict improvement in start order, replicating the
	// sequential MultiStart tie-breaking (earliest start wins ties).
	bestMin := results[0].F
	for i := 1; i < nStarts; i++ {
		if results[i].F < bestMin {
			bestMin = results[i].F
		}
	}
	bestMax := results[nStarts].F
	for i := nStarts + 1; i < 2*nStarts; i++ {
		if results[i].F < bestMax {
			bestMax = results[i].F
		}
	}
	return bestMin, -bestMax, nil
}

// XDecomposition holds the reusable artifacts of one ADCD-X decomposition:
// the Lemma-1 curvature bounds over B and the H(x0) extreme eigenvalues
// driving the §3.4 DC heuristic. Reference-point data (f0, ∇f0) and the
// thresholds are deliberately not part of it: a cached XDecomposition may be
// reused for a nearby (x0, r) zone, but those are always rebuilt exactly.
type XDecomposition struct {
	LamAbsNeg float64 // |λ⁻min| over B (Lemma 1)
	LamPosMax float64 // λ⁺max over B (Lemma 1)
	H0Min     float64 // λmin(H(x0)), §3.4 heuristic input
	H0Max     float64 // λmax(H(x0)), §3.4 heuristic input

	// Backend records which eigen-engine produced the Lemma-1 bounds.
	Backend EigBackend
	// Certified reports that [CertMin, CertMax] is a sound enclosure of
	// every Hessian eigenvalue over B (interval and hybrid backends).
	Certified        bool
	CertMin, CertMax float64
	// Refined reports that a hybrid escalation ran the L-BFGS search on top
	// of the certificate.
	Refined bool
}

// DecomposeX bounds the extreme Hessian eigenvalues over [bLo, bHi] with the
// engine selected by opts.Backend and returns the decomposition artifacts.
// The eigensolve at x0 is computed once and shared across every backend: it
// provides the H(x0) spectrum for the §3.4 DC heuristic, seeds the L-BFGS
// search memos (both searches evaluate x0 first), and calibrates the hybrid
// escalation rule.
func DecomposeX(f *Function, x0, bLo, bHi []float64, opts DecompOptions) (*XDecomposition, error) {
	opts.defaults()
	eigsAt := eigsAtFunc(f, opts)
	lm0, lM0, vMin0, vMax0, err := eigsAt(x0)
	if err != nil {
		return nil, err
	}
	spec := X0Spectrum{LamMin: lm0, LamMax: lM0, VMin: vMin0, VMax: vMax0}
	res, err := BounderFor(opts.Backend).BoundEigs(f, x0, bLo, bHi, spec, opts)
	if err != nil {
		return nil, err
	}
	// Lemma 1: λ⁻min = min{0, λmin}, λ⁺max = max{0, λmax}.
	lamAbsNeg := 0.0
	if res.LamMin < 0 {
		lamAbsNeg = -res.LamMin
	}
	return &XDecomposition{
		LamAbsNeg: lamAbsNeg,
		LamPosMax: math.Max(0, res.LamMax),
		H0Min:     lm0,
		H0Max:     lM0,
		Backend:   opts.Backend,
		Certified: res.Certified,
		CertMin:   res.CertMin,
		CertMax:   res.CertMax,
		Refined:   res.Refined,
	}, nil
}

// BuildZoneXFrom assembles an ADCD-X safe zone around x0 with thresholds
// L, U and neighborhood box [bLo, bHi] from precomputed decomposition
// artifacts. f0 and ∇f0 are evaluated fresh at x0, so a dec reused from the
// coordinator's zone cache still yields exact reference-point data.
func BuildZoneXFrom(f *Function, x0 []float64, l, u float64, bLo, bHi []float64, dec *XDecomposition) *SafeZone {
	kind := chooseKindX(dec.H0Min, dec.H0Max, dec.LamAbsNeg, dec.LamPosMax)
	grad := make([]float64, f.Dim())
	f0 := f.Grad(x0, grad)
	z := &SafeZone{
		Method: MethodX,
		Kind:   kind,
		X0:     linalg.Clone(x0),
		F0:     f0,
		GradF0: grad,
		L:      l,
		U:      u,
		BLo:    linalg.Clone(bLo),
		BHi:    linalg.Clone(bHi),
	}
	if kind == ConvexDiff {
		z.Lam = dec.LamAbsNeg
	} else {
		z.Lam = dec.LamPosMax
	}
	return z
}

// BuildZoneX derives an ADCD-X safe zone around x0 with thresholds L, U and
// neighborhood box [bLo, bHi] (already intersected with the domain).
func BuildZoneX(f *Function, x0 []float64, l, u float64, bLo, bHi []float64, opts DecompOptions) (*SafeZone, error) {
	dec, err := DecomposeX(f, x0, bLo, bHi, opts)
	if err != nil {
		return nil, err
	}
	return BuildZoneXFrom(f, x0, l, u, bLo, bHi, dec), nil
}

// BuildZoneE derives an ADCD-E safe zone around x0 from a precomputed
// decomposition. ADCD-E constraints are valid over the whole domain, so no
// neighborhood box is attached.
func BuildZoneE(f *Function, dec *EDecomposition, x0 []float64, l, u float64) *SafeZone {
	grad := make([]float64, f.Dim())
	f0 := f.Grad(x0, grad)
	return &SafeZone{
		Method: MethodE,
		Kind:   dec.Kind,
		X0:     linalg.Clone(x0),
		F0:     f0,
		GradF0: grad,
		L:      l,
		U:      u,
		H:      dec.H,
	}
}

// BuildZoneNone derives the no-ADCD ablation zone: the admissible region
// itself is used as the local constraint.
func BuildZoneNone(f *Function, x0 []float64, l, u float64) *SafeZone {
	grad := make([]float64, f.Dim())
	f0 := f.Grad(x0, grad)
	return &SafeZone{
		Method: MethodNone,
		X0:     linalg.Clone(x0),
		F0:     f0,
		GradF0: grad,
		L:      l,
		U:      u,
	}
}

// NeighborhoodBox returns the box B = [x0−r, x0+r] ∩ D.
func NeighborhoodBox(f *Function, x0 []float64, r float64) (lo, hi []float64) {
	d := len(x0)
	lo = make([]float64, d)
	hi = make([]float64, d)
	for i := 0; i < d; i++ {
		lo[i] = x0[i] - r
		hi[i] = x0[i] + r
		if f.DomainLo != nil && lo[i] < f.DomainLo[i] {
			lo[i] = f.DomainLo[i]
		}
		if f.DomainHi != nil && hi[i] > f.DomainHi[i] {
			hi[i] = f.DomainHi[i]
		}
		if lo[i] > hi[i] { // degenerate: x0 clamped to a domain face
			lo[i], hi[i] = hi[i], lo[i]
		}
	}
	return lo, hi
}
