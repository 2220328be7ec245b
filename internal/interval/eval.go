package interval

import (
	"fmt"
	"math"
	"sync"

	"automon/internal/autodiff"
)

// Mat is a square matrix of interval entries — an elementwise enclosure of a
// family of real matrices (here: every Hessian H(x) for x in a box).
type Mat struct {
	D     int
	cells []Interval
}

// NewMat returns a zeroed d×d interval matrix.
func NewMat(d int) *Mat { return &Mat{D: d, cells: make([]Interval, d*d)} }

// At returns entry (i, j).
func (m *Mat) At(i, j int) Interval { return m.cells[i*m.D+j] }

// Set stores entry (i, j).
func (m *Mat) Set(i, j int, v Interval) { m.cells[i*m.D+j] = v }

// ivalPool hands out Interval scratch slices sized to P, mirroring
// autodiff's bufferPool: evaluators are shared between goroutines, and the
// pool stores *[]Interval so Put never boxes a fresh allocation.
type ivalPool struct {
	size int
	pool sync.Pool
}

func (p *ivalPool) get() *[]Interval {
	if v := p.pool.Get(); v != nil {
		return v.(*[]Interval)
	}
	//automon:allow hotpath pool-miss fallback: first evaluation per P warms the pool; steady state never reaches this line
	s := make([]Interval, p.size)
	return &s
}

func (p *ivalPool) put(buf *[]Interval) { p.pool.Put(buf) }

// Evaluator evaluates a graph's Hessian-vector product program P(x, v) =
// H(x)·v (autodiff.Graph.HVPProgram) in interval arithmetic, with x in a box
// and v a point. P is the program the scalar Graph.HVP/Graph.Hessian run, so
// on a degenerate point box the evaluator reproduces the scalar Hessian
// exactly, and on a fat box it returns a sound elementwise enclosure of every
// H(x) in the box.
type Evaluator struct {
	d     int
	specs []autodiff.NodeSpec
	outs  []int
	pool  ivalPool
}

// NewEvaluator compiles an interval evaluator for g.
func NewEvaluator(g *autodiff.Graph) *Evaluator {
	specs, outs := g.HVPProgram()
	e := &Evaluator{d: g.Dim(), specs: specs, outs: outs}
	e.pool.size = len(specs)
	return e
}

// checkBox validates a hyperrectangle: matching lengths, no NaN endpoints,
// lo ≤ hi in every coordinate. ±Inf endpoints are allowed (unbounded boxes
// simply yield wide enclosures).
func (e *Evaluator) checkBox(lo, hi []float64) error {
	if len(lo) != e.d || len(hi) != e.d {
		return fmt.Errorf("interval: box is %d×%d, graph has %d variables", len(lo), len(hi), e.d)
	}
	for i := range lo {
		if math.IsNaN(lo[i]) || math.IsNaN(hi[i]) {
			return fmt.Errorf("interval: box coordinate %d has NaN endpoint [%v, %v]", i, lo[i], hi[i])
		}
		if lo[i] > hi[i] {
			return fmt.Errorf("interval: box coordinate %d is inverted [%v, %v]", i, lo[i], hi[i])
		}
	}
	return nil
}

// Hessian stores an elementwise enclosure of {H(x) : lo ≤ x ≤ hi} into m via
// d interval Hessian-vector products against the basis vectors, symmetrized
// the same way as the scalar path. It rejects malformed boxes (NaN or
// inverted endpoints) with an error and never panics on valid ones.
func (e *Evaluator) Hessian(lo, hi []float64, m *Mat) error {
	d := e.d
	if err := e.checkBox(lo, hi); err != nil {
		return err
	}
	if m.D != d {
		return fmt.Errorf("interval: Hessian matrix is %d×%d, want %d×%d", m.D, m.D, d, d)
	}
	colBuf := e.pool.get()
	defer e.pool.put(colBuf)
	col := (*colBuf)[:d]
	for j := 0; j < d; j++ {
		e.hvpBasis(lo, hi, j, col)
		for i := 0; i < d; i++ {
			m.Set(i, j, col[i])
		}
	}
	// Same loop as linalg.Mat.Symmetrize, under interval arithmetic: the
	// interval mean of the two triangles encloses the scalar mean of any
	// member matrix, and at point boxes reproduces it exactly. (Intersection
	// would be tighter but can go empty under per-pass round-off, which would
	// break the soundness contract.)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := Point(0.5).Mul(m.At(i, j).Add(m.At(j, i)))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return nil
}

// hvpBasis stores column j of the Hessian enclosure into col: one forward
// pass over P with x the box and v the basis vector e_j.
//
//automon:hotpath
func (e *Evaluator) hvpBasis(lo, hi []float64, j int, col []Interval) {
	valBuf := e.pool.get()
	defer e.pool.put(valBuf)
	val := *valBuf
	for i := range e.specs {
		n := &e.specs[i]
		k := int(n.K)
		switch {
		case n.Op != autodiff.OpVar:
			val[i] = ivalOp(n, val)
		case k < e.d:
			val[i] = fix(lo[k], hi[k])
		case k == e.d+j:
			val[i] = Interval{1, 1}
		default:
			val[i] = Interval{}
		}
	}
	for i, o := range e.outs {
		col[i] = val[o]
	}
}

// ivalOp evaluates the non-variable node n over its children's enclosures in
// val: one Interval method per op.
//
//automon:hotpath
func ivalOp(n *autodiff.NodeSpec, val []Interval) Interval {
	if n.Op == autodiff.OpConst {
		return Point(n.K)
	}
	a := val[n.A]
	switch n.Op {
	case autodiff.OpAdd:
		return a.Add(val[n.B])
	case autodiff.OpSub:
		return a.Sub(val[n.B])
	case autodiff.OpMul:
		return a.Mul(val[n.B])
	case autodiff.OpDiv:
		return a.Div(val[n.B])
	case autodiff.OpNeg:
		return a.Neg()
	case autodiff.OpTanh:
		return a.Tanh()
	case autodiff.OpRelu:
		return a.Relu()
	case autodiff.OpStep:
		return a.Step()
	case autodiff.OpSigmoid:
		return a.Sigmoid()
	case autodiff.OpExp:
		return a.Exp()
	case autodiff.OpLog:
		return a.Log()
	case autodiff.OpSin:
		return a.Sin()
	case autodiff.OpCos:
		return a.Cos()
	case autodiff.OpSqrt:
		return a.Sqrt()
	case autodiff.OpSquare:
		return a.Square()
	case autodiff.OpPowi:
		return a.Powi(int(n.K))
	case autodiff.OpAbs:
		return a.Abs()
	case autodiff.OpSign:
		return a.Sign()
	}
	panic("interval: unknown op " + n.Op.String())
}
