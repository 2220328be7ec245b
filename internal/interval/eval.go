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

// ivalPool hands out Interval scratch slices sized to the graph, mirroring
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

func (p *ivalPool) getZeroed() *[]Interval {
	buf := p.get()
	s := *buf
	for i := range s {
		s[i] = Interval{}
	}
	return buf
}

func (p *ivalPool) put(buf *[]Interval) { p.pool.Put(buf) }

// Evaluator re-interprets a compiled autodiff graph under interval
// arithmetic. Its Hessian pass is the same forward-over-reverse program as
// the scalar Graph.HVP/Graph.Hessian, loop for loop and formula for formula,
// with every float64 replaced by an Interval — so on a degenerate point box
// it reproduces the scalar Hessian exactly, and on a fat box it returns a
// sound elementwise enclosure of every H(x) in the box.
type Evaluator struct {
	specs []autodiff.NodeSpec
	vars  []int
	out   int
	pool  ivalPool
}

// NewEvaluator compiles an interval evaluator for g.
func NewEvaluator(g *autodiff.Graph) *Evaluator {
	e := &Evaluator{
		specs: g.AppendNodeSpecs(nil),
		vars:  make([]int, g.Dim()),
		out:   g.OutputIndex(),
	}
	for i := range e.vars {
		e.vars[i] = g.VarNodeIndex(i)
	}
	e.pool.size = len(e.specs)
	return e
}

// checkBox validates a hyperrectangle: matching lengths, no NaN endpoints,
// lo ≤ hi in every coordinate. ±Inf endpoints are allowed (unbounded boxes
// simply yield wide enclosures).
func (e *Evaluator) checkBox(lo, hi []float64) error {
	if len(lo) != len(e.vars) || len(hi) != len(e.vars) {
		return fmt.Errorf("interval: box is %d×%d, graph has %d variables", len(lo), len(hi), len(e.vars))
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
	d := len(e.vars)
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

// hvpBasis computes the interval HVP against basis vector e_j — column j of
// the Hessian enclosure — into col. It is Graph.HVP transliterated to
// intervals: a forward pass with tangents, then a reverse pass with dual
// adjoints.
//
//automon:hotpath
func (e *Evaluator) hvpBasis(lo, hi []float64, j int, col []Interval) {
	valBuf, tanBuf := e.pool.get(), e.pool.get()
	adjBuf, adjTBuf := e.pool.getZeroed(), e.pool.getZeroed()
	defer e.pool.put(valBuf)
	defer e.pool.put(tanBuf)
	defer e.pool.put(adjBuf)
	defer e.pool.put(adjTBuf)
	val, tan := *valBuf, *tanBuf
	adj, adjT := *adjBuf, *adjTBuf

	// Forward pass with tangents.
	for i, n := range e.specs {
		switch n.Op {
		case autodiff.OpConst:
			val[i], tan[i] = Point(n.K), Interval{}
		case autodiff.OpVar:
			k := int(n.K)
			val[i] = fix(lo[k], hi[k])
			if k == j {
				tan[i] = Interval{1, 1}
			} else {
				tan[i] = Interval{}
			}
		default:
			var vb, tb Interval
			if n.B >= 0 {
				vb, tb = val[n.B], tan[n.B]
			}
			val[i], tan[i] = ivalDualForward(n.Op, n.K, val[n.A], tan[n.A], vb, tb)
		}
	}

	// Reverse pass with dual adjoints, same recurrence as the scalar path:
	//   adj[c]  += adj[n]·p     and   adjT[c] += adjT[n]·p + adj[n]·ṗ
	adj[e.out] = Interval{1, 1}
	for i := len(e.specs) - 1; i >= 0; i-- {
		a, at := adj[i], adjT[i]
		if a.IsZero() && at.IsZero() {
			continue
		}
		n := &e.specs[i]
		switch n.Op {
		case autodiff.OpConst, autodiff.OpVar:
			continue
		}
		var vb, tb Interval
		if n.B >= 0 {
			vb, tb = val[n.B], tan[n.B]
		}
		pa, dpa, pb, dpb := ivalDualPartials(n.Op, n.K, val[n.A], tan[n.A], vb, tb, val[i], tan[i])
		adj[n.A] = adj[n.A].Add(a.Mul(pa))
		adjT[n.A] = adjT[n.A].Add(at.Mul(pa).Add(a.Mul(dpa)))
		if n.B >= 0 {
			adj[n.B] = adj[n.B].Add(a.Mul(pb))
			adjT[n.B] = adjT[n.B].Add(at.Mul(pb).Add(a.Mul(dpb)))
		}
	}
	for i, vr := range e.vars {
		col[i] = adjT[vr]
	}
}

// hull0 returns the convex hull of a and {0}, the tangent enclosure for
// kinked ops (relu) whose active branch varies across the box.
func hull0(a Interval) Interval {
	return Interval{math.Min(a.Lo, 0), math.Max(a.Hi, 0)}
}

// ivalDualForward is node.dualForward under interval arithmetic. Each branch
// uses the same formula and operand grouping as the scalar code so point
// boxes evaluate identically; nonsmooth ops (relu, abs) gain a third branch
// that hulls both scalar outcomes when the box straddles the kink.
//
//automon:hotpath
func ivalDualForward(op autodiff.Op, k float64, va, ta, vb, tb Interval) (v, t Interval) {
	switch op {
	case autodiff.OpAdd:
		return va.Add(vb), ta.Add(tb)
	case autodiff.OpSub:
		return va.Sub(vb), ta.Sub(tb)
	case autodiff.OpMul:
		return va.Mul(vb), ta.Mul(vb).Add(va.Mul(tb))
	case autodiff.OpDiv:
		v = va.Div(vb)
		return v, ta.Sub(v.Mul(tb)).Div(vb)
	case autodiff.OpNeg:
		return va.Neg(), ta.Neg()
	case autodiff.OpTanh:
		v = va.Tanh()
		return v, Point(1).Sub(v.Square()).Mul(ta)
	case autodiff.OpRelu:
		switch {
		case va.Lo > 0:
			return va, ta
		case va.Hi <= 0:
			return Interval{}, Interval{}
		}
		return va.Relu(), hull0(ta)
	case autodiff.OpStep:
		return va.Step(), Interval{}
	case autodiff.OpSigmoid:
		v = va.Sigmoid()
		return v, v.Mul(Point(1).Sub(v)).Mul(ta)
	case autodiff.OpExp:
		v = va.Exp()
		return v, v.Mul(ta)
	case autodiff.OpLog:
		return va.Log(), ta.Div(va)
	case autodiff.OpSin:
		return va.Sin(), va.Cos().Mul(ta)
	case autodiff.OpCos:
		return va.Cos(), va.Sin().Neg().Mul(ta)
	case autodiff.OpSqrt:
		v = va.Sqrt()
		return v, ta.Div(Point(2).Mul(v))
	case autodiff.OpSquare:
		return va.Square(), Point(2).Mul(va).Mul(ta)
	case autodiff.OpPowi:
		return va.Powi(int(k)), Point(k).Mul(va.Powi(int(k) - 1)).Mul(ta)
	case autodiff.OpAbs:
		switch {
		case va.Lo > 0:
			return va, ta
		case va.Hi < 0:
			return va.Neg(), ta.Neg()
		}
		m := ta.Mag()
		return va.Abs(), fix(-m, m)
	case autodiff.OpSign:
		return va.Sign(), Interval{}
	}
	panic("interval: unknown op in ivalDualForward: " + op.String())
}

// ivalDualPartials is node.dualPartials under interval arithmetic, with the
// same formulas and groupings; kinked ops hull both scalar branches when the
// box straddles the kink. Squares of value intervals use Square (not
// self-Mul) — identical at points, tighter on fat boxes.
//
//automon:hotpath
func ivalDualPartials(op autodiff.Op, k float64, va, ta, vb, tb, vn, tn Interval) (pa, dpa, pb, dpb Interval) {
	zero := Interval{}
	one := Interval{1, 1}
	switch op {
	case autodiff.OpAdd:
		return one, zero, one, zero
	case autodiff.OpSub:
		return one, zero, Interval{-1, -1}, zero
	case autodiff.OpMul:
		return vb, tb, va, ta
	case autodiff.OpDiv:
		pa = one.Div(vb)
		dpa = tb.Neg().Div(vb.Square())
		pb = va.Neg().Div(vb.Square())
		dpb = ta.Neg().Mul(vb).Add(Point(2).Mul(va).Mul(tb)).Div(vb.Square().Mul(vb))
		return pa, dpa, pb, dpb
	case autodiff.OpNeg:
		return Interval{-1, -1}, zero, zero, zero
	case autodiff.OpTanh:
		pa = Point(1).Sub(vn.Square())
		return pa, Point(-2).Mul(vn).Mul(tn), zero, zero
	case autodiff.OpRelu:
		switch {
		case va.Lo > 0:
			return one, zero, zero, zero
		case va.Hi <= 0:
			return zero, zero, zero, zero
		}
		return Interval{0, 1}, zero, zero, zero
	case autodiff.OpStep, autodiff.OpSign:
		return zero, zero, zero, zero
	case autodiff.OpSigmoid:
		pa = vn.Mul(Point(1).Sub(vn))
		return pa, tn.Mul(Point(1).Sub(Point(2).Mul(vn))), zero, zero
	case autodiff.OpExp:
		return vn, tn, zero, zero
	case autodiff.OpLog:
		return one.Div(va), ta.Neg().Div(va.Square()), zero, zero
	case autodiff.OpSin:
		return va.Cos(), va.Sin().Neg().Mul(ta), zero, zero
	case autodiff.OpCos:
		return va.Sin().Neg(), va.Cos().Neg().Mul(ta), zero, zero
	case autodiff.OpSqrt:
		pa = Point(0.5).Div(vn)
		return pa, Point(-0.5).Mul(tn).Div(vn.Square()), zero, zero
	case autodiff.OpSquare:
		return Point(2).Mul(va), Point(2).Mul(ta), zero, zero
	case autodiff.OpPowi:
		pa = Point(k).Mul(va.Powi(int(k) - 1))
		dpa = Point(k * (k - 1)).Mul(va.Powi(int(k) - 2)).Mul(ta)
		return pa, dpa, zero, zero
	case autodiff.OpAbs:
		switch {
		case va.Lo > 0:
			return one, zero, zero, zero
		case va.Hi < 0:
			return Interval{-1, -1}, zero, zero, zero
		}
		return Interval{-1, 1}, zero, zero, zero
	}
	panic("interval: unknown op in ivalDualPartials: " + op.String())
}
