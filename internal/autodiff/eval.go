package autodiff

import (
	"fmt"
	"math"
	"sync"

	"automon/internal/linalg"
)

// bufferPool hands out float64 scratch slices sized to the graph. Graphs are
// shared between goroutines (e.g. simulated nodes), so scratch space is
// pooled rather than stored on the Graph. The pool stores *[]float64: a bare
// slice would be boxed into an interface on every Put, costing one heap
// allocation per evaluation and breaking the zero-alloc monitoring path.
type bufferPool struct {
	size int
	pool sync.Pool
}

// get returns a dirty buffer: callers that fully overwrite it (forward
// passes) skip the clearing cost.
func (p *bufferPool) get() *[]float64 {
	if v := p.pool.Get(); v != nil {
		return v.(*[]float64)
	}
	//automon:allow hotpath pool-miss fallback: first evaluation per P warms the pool; steady state never reaches this line
	s := make([]float64, p.size)
	return &s
}

// getZeroed returns a cleared buffer for accumulator passes (adjoints) that
// read entries before writing them.
func (p *bufferPool) getZeroed() *[]float64 {
	buf := p.get()
	s := *buf
	for i := range s {
		s[i] = 0
	}
	return buf
}

func (p *bufferPool) put(buf *[]float64) { p.pool.Put(buf) }

func (g *Graph) checkDim(x []float64) {
	if len(x) != len(g.vars) {
		panic(fmt.Sprintf("autodiff: input has %d entries, graph has %d variables", len(x), len(g.vars)))
	}
}

// Value evaluates f(x).
//
//automon:hotpath
func (g *Graph) Value(x []float64) float64 {
	g.checkDim(x)
	valBuf := g.pool.get()
	defer g.pool.put(valBuf)
	val := *valBuf
	bind(val, g.vars, x)
	forward(g.nodes, val)
	return val[g.out]
}

// bind stores x into val's entries for the variable nodes vars.
func bind(val []float64, vars []Ref, x []float64) {
	for i, r := range vars {
		val[r] = x[i]
	}
}

// forward evaluates nodes into val, whose variable entries the caller has
// bound.
func forward(nodes []node, val []float64) {
	for i, n := range nodes {
		switch n.op {
		case OpConst:
			val[i] = n.k
		case OpVar:
		case OpAdd:
			val[i] = val[n.a] + val[n.b]
		case OpSub:
			val[i] = val[n.a] - val[n.b]
		case OpMul:
			val[i] = val[n.a] * val[n.b]
		case OpDiv:
			val[i] = val[n.a] / val[n.b]
		case OpNeg:
			val[i] = -val[n.a]
		case OpTanh:
			val[i] = math.Tanh(val[n.a])
		case OpRelu:
			val[i] = math.Max(val[n.a], 0)
		case OpStep:
			if val[n.a] > 0 {
				val[i] = 1
			} else {
				val[i] = 0
			}
		case OpSigmoid:
			val[i] = 1 / (1 + math.Exp(-val[n.a]))
		case OpExp:
			val[i] = math.Exp(val[n.a])
		case OpLog:
			val[i] = math.Log(val[n.a])
		case OpSin:
			val[i] = math.Sin(val[n.a])
		case OpCos:
			val[i] = math.Cos(val[n.a])
		case OpSqrt:
			val[i] = math.Sqrt(val[n.a])
		case OpSquare:
			v := val[n.a]
			val[i] = v * v
		case OpPowi:
			val[i] = powi(val[n.a], int(n.k))
		case OpAbs:
			val[i] = math.Abs(val[n.a])
		case OpSign:
			v := val[n.a]
			switch {
			case v > 0:
				val[i] = 1
			case v < 0:
				val[i] = -1
			default:
				val[i] = 0
			}
		default:
			panic("autodiff: unknown op " + n.op.String())
		}
	}
}

func powi(x float64, k int) float64 {
	if k < 0 {
		return 1 / powi(x, -k)
	}
	r := 1.0
	for k > 0 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
		k >>= 1
	}
	return r
}

// partials returns the local derivatives ∂n/∂a and ∂n/∂b given the forward
// values of the children and of the node itself.
func (n *node) partials(va, vb, vn float64) (pa, pb float64) {
	switch n.op {
	case OpAdd:
		return 1, 1
	case OpSub:
		return 1, -1
	case OpMul:
		return vb, va
	case OpDiv:
		return 1 / vb, -va / (vb * vb)
	case OpNeg:
		return -1, 0
	case OpTanh:
		return 1 - vn*vn, 0
	case OpRelu:
		if va > 0 {
			return 1, 0
		}
		return 0, 0
	case OpStep, OpSign:
		return 0, 0
	case OpSigmoid:
		return vn * (1 - vn), 0
	case OpExp:
		return vn, 0
	case OpLog:
		return 1 / va, 0
	case OpSin:
		return math.Cos(va), 0
	case OpCos:
		return -math.Sin(va), 0
	case OpSqrt:
		return 0.5 / vn, 0
	case OpSquare:
		return 2 * va, 0
	case OpPowi:
		return n.k * powi(va, int(n.k)-1), 0
	case OpAbs:
		switch {
		case va > 0:
			return 1, 0
		case va < 0:
			return -1, 0
		}
		return 0, 0
	}
	return 0, 0
}

// Grad evaluates f(x) and stores ∇f(x) into grad, returning f(x): one
// forward pass over the gradient program G, whose prefix is f's, so the
// value is Value's bit for bit. grad must have length Dim.
//
//automon:hotpath
func (g *Graph) Grad(x, grad []float64) float64 {
	g.checkDim(x)
	if len(grad) != len(g.vars) {
		panic("autodiff: grad buffer has wrong length")
	}
	valBuf := g.pool.get()
	defer g.pool.put(valBuf)
	val := *valBuf
	bind(val, g.vars, x)
	forward(g.grad, val)
	for i, r := range g.dfdx {
		grad[i] = val[r]
	}
	return val[g.out]
}

// sweep is the reverse pass: given the forward values val and the seeded
// output adjoints in adj, it accumulates every node's adjoint into adj.
// EigGrad runs it over P.
// It stays numeric: as a program, EigGrad is slower on KLD per call and per build (EXPERIMENTS.md).
func sweep(nodes []node, val, adj []float64) {
	for i := len(nodes) - 1; i >= 0; i-- {
		a := adj[i]
		if a == 0 {
			continue
		}
		n := &nodes[i]
		switch n.op {
		case OpConst, OpVar:
			continue
		}
		var vb float64
		if n.b >= 0 {
			vb = val[n.b]
		}
		pa, pb := n.partials(val[n.a], vb, val[i])
		adj[n.a] += a * pa
		if n.b >= 0 {
			adj[n.b] += a * pb
		}
	}
}

// bind stores x and v (zero when v is nil) into val's variable entries.
func (p *program) bind(val, x, v []float64) {
	bind(val, p.x, x)
	for i, r := range p.v {
		val[r] = 0
		if v != nil {
			val[r] = v[i]
		}
	}
}

// HVP stores H(x)·v into out, where H is the Hessian of f: one forward pass
// over P(x, v) = H(x)·v. out must have length Dim.
func (g *Graph) HVP(x, v, out []float64) {
	g.checkDim(x)
	if len(v) != len(g.vars) || len(out) != len(g.vars) {
		panic("autodiff: HVP buffer has wrong length")
	}
	p := g.hvpProgram()
	valBuf := p.pool.get()
	defer p.pool.put(valBuf)
	val := *valBuf
	p.bind(val, x, v)
	forward(p.nodes, val)
	for i, o := range p.outs {
		out[i] = val[o]
	}
}

// Hessian evaluates the full d×d Hessian of f at x into h, column j by one
// forward pass over P(x, e_j), then symmetrizes to wash out round-off. A
// graph with a constant Hessian (HasConstantHessian) and no P cached by an
// earlier HVP, EigGrad or HVPProgram builds P for this call only.
//
//automon:hotpath
func (g *Graph) Hessian(x []float64, h *linalg.Mat) {
	g.checkDim(x)
	d := len(g.vars)
	if h.Rows != d || h.Cols != d {
		panic("autodiff: Hessian matrix has wrong shape")
	}
	p := g.hvp.Load()
	if p == nil {
		//automon:allow hotpath P is not cached yet: built once for a general graph, per call for a constant-Hessian one, whose Hessian is evaluated only at set-up (CurvBound and each machine's first DecomposeE)
		p = g.hessianProgram()
	}
	valBuf := p.pool.get()
	defer p.pool.put(valBuf)
	val := *valBuf
	p.bind(val, x, nil)
	for j, r := range p.v {
		val[r] = 1
		forward(p.nodes, val)
		for i, o := range p.outs {
			h.Set(i, j, val[o])
		}
		val[r] = 0
	}
	h.Symmetrize()
}

// EigGrad stores into out the gradient ∇ₓ(vᵀH(x)v) for a fixed v: one
// forward pass over P(x, v) and one reverse sweep seeded with v at P's
// outputs. By the Hellmann–Feynman theorem this is the gradient of the
// eigenvalue λ(x) whenever v is its (simple) unit eigenvector at x. out must
// have length Dim.
func (g *Graph) EigGrad(x, v, out []float64) {
	g.checkDim(x)
	if len(v) != len(g.vars) || len(out) != len(g.vars) {
		panic("autodiff: EigGrad buffer has wrong length")
	}
	p := g.hvpProgram()
	valBuf, adjBuf := p.pool.get(), p.pool.getZeroed()
	defer p.pool.put(valBuf)
	defer p.pool.put(adjBuf)
	val, adj := *valBuf, *adjBuf
	p.bind(val, x, v)
	forward(p.nodes, val)
	for i, o := range p.outs {
		adj[o] += v[i]
	}
	sweep(p.nodes, val, adj)
	for i, r := range p.x {
		out[i] = adj[r]
	}
}
