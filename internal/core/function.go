// Package core implements the AutoMon algorithm (Sivan, Gabel, Schuster;
// SIGMOD 2022): automatic, communication-efficient distributed monitoring of
// arbitrary multivariate functions of the average of dynamic local vectors.
//
// The package contains the complete pipeline described in §3 of the paper:
//
//   - ADCD-X (§3.1): extreme Hessian eigenvalues over a neighborhood B found
//     by box-constrained numerical optimization on top of automatic
//     differentiation, turned into a DC decomposition via Lemma 1.
//   - ADCD-E (§3.2): exact eigendecomposition split H = H⁻ + H⁺ for
//     constant-Hessian functions (Lemma 2), detected automatically from the
//     computational graph.
//   - Local constraints (§3.3) and the convex/concave DC heuristic (§3.4).
//   - The coordinator/node protocol with slack and LRU lazy sync (§3.5).
//   - Neighborhood-size tuning, Algorithm 2 (§3.6), plus the runtime r·2
//     fallback heuristic.
//   - The §3.7 sanity check guarding against inaccurate eigenvalue bounds.
package core

import (
	"fmt"
	"math"
	"sync"

	"automon/internal/autodiff"
	"automon/internal/interval"
	"automon/internal/linalg"
)

// Function is a monitored function: a compiled autodiff graph plus optional
// domain bounds. It is immutable after construction and safe for concurrent
// use by a coordinator and many nodes.
type Function struct {
	Name  string
	Graph *autodiff.Graph

	// DomainLo/DomainHi bound the domain D of f per coordinate. nil means
	// unbounded. Data and neighborhood boxes are intersected with D.
	DomainLo, DomainHi []float64

	intervalOnce sync.Once
	intervalEval *interval.Evaluator

	// blockPool pools ExtremeEigsAt's *blockScratch, so an eigensolve
	// allocates only the two eigenvectors it returns.
	blockPool sync.Pool

	// curvK is an explicit curvature bound installed via WithCurvature:
	// ‖∇²f(x)‖₂ ≤ curvK for every x in the domain D. Used by safe-zone check
	// elision (Node.EnableElision) to turn per-event vector movement into a
	// sound bound on the movement of f.
	curvK   float64
	curvSet bool

	// curvOnce guards the automatic curvature bound derived for
	// constant-Hessian functions (Gershgorin on the constant H; globally
	// valid).
	curvOnce   sync.Once
	autoCurv   float64
	autoCurvOK bool
}

// NewFunction compiles program into a monitored function of dimension dim.
func NewFunction(name string, dim int, program autodiff.Program) *Function {
	return &Function{Name: name, Graph: autodiff.Compile(dim, program)}
}

// WithDomain sets per-coordinate domain bounds and returns f. Both slices
// must have length Dim.
func (f *Function) WithDomain(lo, hi []float64) *Function {
	if len(lo) != f.Dim() || len(hi) != f.Dim() {
		panic(fmt.Sprintf("core: domain bounds have length %d/%d, function dim %d", len(lo), len(hi), f.Dim()))
	}
	f.DomainLo = linalg.Clone(lo)
	f.DomainHi = linalg.Clone(hi)
	return f
}

// WithCurvature declares k an upper bound on the Hessian spectral norm
// ‖∇²f(x)‖₂ for every x in the domain D (everywhere, if no domain is set)
// and returns f. The bound licenses safe-zone check elision for
// non-constant-Hessian functions; it is trusted, so an understated k voids
// the elision soundness guarantee the same way a wrong function body would.
func (f *Function) WithCurvature(k float64) *Function {
	if !(k >= 0) || math.IsInf(k, 0) {
		panic(fmt.Sprintf("core: curvature bound must be finite and non-negative, got %v", k))
	}
	f.curvK = k
	f.curvSet = true
	return f
}

// CurvBound returns a curvature bound for f: k with ‖∇²f(x)‖₂ ≤ k, whether
// the bound is valid only on the domain D (domainOnly) or globally, and
// whether any bound is available. An explicit WithCurvature bound wins;
// otherwise constant-Hessian functions get an automatic Gershgorin bound on
// the (constant) Hessian, which is globally valid. Functions with neither
// cannot use check elision.
func (f *Function) CurvBound() (k float64, domainOnly, ok bool) {
	if f.curvSet {
		return f.curvK, f.DomainLo != nil, true
	}
	f.curvOnce.Do(func() {
		if !f.Graph.HasConstantHessian() {
			return
		}
		d := f.Dim()
		h := linalg.NewMat(d, d)
		f.Hessian(make([]float64, d), h)
		var bound float64
		for i := 0; i < d; i++ {
			var row float64
			for j := 0; j < d; j++ {
				row += math.Abs(h.At(i, j))
			}
			if row > bound {
				bound = row
			}
		}
		if !(bound >= 0) { // NaN Hessian entries: refuse the bound
			return
		}
		f.autoCurv, f.autoCurvOK = bound, true
	})
	return f.autoCurv, false, f.autoCurvOK
}

// Dim returns the input dimension d.
func (f *Function) Dim() int { return f.Graph.Dim() }

// Value evaluates f(x).
func (f *Function) Value(x []float64) float64 { return f.Graph.Value(x) }

// Grad evaluates f(x) and writes ∇f(x) into grad, returning the value.
func (f *Function) Grad(x, grad []float64) float64 { return f.Graph.Grad(x, grad) }

// Hessian writes the Hessian at x into h.
func (f *Function) Hessian(x []float64, h *linalg.Mat) { f.Graph.Hessian(x, h) }

// HasConstantHessian reports whether the computational graph proves the
// Hessian independent of x, which enables ADCD-E.
func (f *Function) HasConstantHessian() bool { return f.Graph.HasConstantHessian() }

// intervalEvaluator lazily compiles the interval re-interpretation of the
// graph used by the certified eigen-engine (BackendInterval/BackendHybrid).
func (f *Function) intervalEvaluator() *interval.Evaluator {
	f.intervalOnce.Do(func() { f.intervalEval = interval.NewEvaluator(f.Graph) })
	return f.intervalEval
}

// IntervalEigBounds computes certified extreme-eigenvalue bounds of the
// Hessian over the box [lo, hi]: every eigenvalue of every H(x) with
// lo ≤ x ≤ hi lies in the returned [lamMin, lamMax]. One interval Hessian
// pass plus Gershgorin-family tightening — no optimization, no multi-start.
func (f *Function) IntervalEigBounds(lo, hi []float64) (lamMin, lamMax float64, err error) {
	e := f.intervalEvaluator()
	m := interval.NewMat(f.Dim())
	if err := e.Hessian(lo, hi, m); err != nil {
		return 0, 0, err
	}
	return interval.EigBounds(m)
}

// blockScratch is ExtremeEigsAt's workspace: the compressed seed and its
// Hessian-vector product (d each), the diagonal blocks' matrices and their
// eigenvalues back to back (Σb² and Σb = d), and the solver's work vector
// (the widest b).
type blockScratch struct {
	seed, col, mats, vals, work []float64
}

// ExtremeEigsAt computes the smallest and largest eigenvalue of H(x) along
// with their unit eigenvectors. It assembles and solves only the diagonal
// blocks of H that Graph.HessianBlocks proves it has; a function whose
// variables are all coupled is one block, solved densely.
//
// The blocks are assembled with Curtis–Powell–Reid compression: seed k sets
// the k-th variable of every block, so one Hessian-vector product yields
// column k of every block at once and the widest block's width in products
// yield them all (KLD: 2 instead of d). Each block's entries are bit-equal to
// those of Graph.Hessian, because the other blocks' seeds reach its
// variables only through affine nodes. Ties go to the first block in
// variable order, and to the first eigenvalue the block's solver returns. A
// block whose solve fails or yields a non-finite eigenvalue fails the call.
func (f *Function) ExtremeEigsAt(x []float64) (lamMin, lamMax float64, vMin, vMax []float64, err error) {
	blocks := f.Graph.HessianBlocks()
	s, _ := f.blockPool.Get().(*blockScratch)
	if s == nil {
		s = newBlockScratch(f.Dim(), blocks)
	}
	defer f.blockPool.Put(s)
	s.assemble(f.Graph, blocks, x)

	minBlk, maxBlk := -1, -1
	var minOff, maxOff, minCol, maxCol int
	off, voff := 0, 0
	for bi, blk := range blocks {
		b := len(blk)
		m := linalg.Mat{Rows: b, Cols: b, Data: s.mats[off : off+b*b]}
		vals := s.vals[voff : voff+b]
		if err := linalg.EigenSymInPlace(&m, vals, s.work[:b], true); err != nil {
			return 0, 0, nil, nil, err
		}
		for j, lam := range vals {
			if math.IsNaN(lam) || math.IsInf(lam, 0) {
				return 0, 0, nil, nil, fmt.Errorf("core: %s: non-finite Hessian eigenvalue %v", f.Name, lam)
			}
			if minBlk < 0 || lam < lamMin {
				lamMin, minBlk, minOff, minCol = lam, bi, off, j
			}
			if maxBlk < 0 || lam > lamMax {
				lamMax, maxBlk, maxOff, maxCol = lam, bi, off, j
			}
		}
		off += b * b
		voff += b
	}
	vMin = s.embed(blocks[minBlk], minOff, minCol)
	vMax = s.embed(blocks[maxBlk], maxOff, maxCol)
	return lamMin, lamMax, vMin, vMax, nil
}

func newBlockScratch(d int, blocks [][]int) *blockScratch {
	var cells, width int
	for _, blk := range blocks {
		cells += len(blk) * len(blk)
		width = max(width, len(blk))
	}
	return &blockScratch{
		seed: make([]float64, d),
		col:  make([]float64, d),
		mats: make([]float64, cells),
		vals: make([]float64, d),
		work: make([]float64, width),
	}
}

// assemble writes the symmetrized diagonal blocks of H(x) into s.mats, block
// after block in row-major order, with one Hessian-vector product per column
// of the widest block.
func (s *blockScratch) assemble(g *autodiff.Graph, blocks [][]int, x []float64) {
	clear(s.seed)
	for k := 0; k < len(s.work); k++ {
		for _, blk := range blocks {
			if k < len(blk) {
				s.seed[blk[k]] = 1
			}
		}
		g.HVP(x, s.seed, s.col)
		off := 0
		for _, blk := range blocks {
			b := len(blk)
			if k < b {
				s.seed[blk[k]] = 0
				for i, v := range blk {
					s.mats[off+i*b+k] = s.col[v]
				}
			}
			off += b * b
		}
	}
	off := 0
	for _, blk := range blocks {
		b := len(blk)
		m := linalg.Mat{Rows: b, Cols: b, Data: s.mats[off : off+b*b]}
		m.Symmetrize()
		off += b * b
	}
}

// embed returns column col of the solved block matrix at mats[off:] as a
// d-vector that is zero outside the block's variables blk.
func (s *blockScratch) embed(blk []int, off, col int) []float64 {
	v := make([]float64, len(s.seed))
	b := len(blk)
	for i, dst := range blk {
		v[dst] = s.mats[off+i*b+col]
	}
	return v
}

// EigGrad writes into out the gradient ∇ₓ(vᵀH(x)v) for a fixed unit vector
// v. By the Hellmann–Feynman theorem this is the gradient of the eigenvalue
// λ(x) whenever v is the (simple) eigenvector of λ at x. It is one reverse
// sweep over the graph's Hessian-vector product program (Graph.EigGrad).
func (f *Function) EigGrad(x, v, out []float64) { f.Graph.EigGrad(x, v, out) }
