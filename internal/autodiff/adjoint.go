package autodiff

// adjoint is the reverse-mode transform. It replays nodes, a program with
// output out, into b with variable i bound to xs[i], then emits the program's
// reverse sweep as Builder ops, seeded with 1 at out. Each op's case is the
// vjp rule that partials computes numerically. It returns the refs of
// ∂f/∂xᵢ. Builder folding keeps structural zeros structural, and an adjoint
// that is structurally zero is never built.
//
// Into a fresh Builder of the program's dimension, the replay copies nodes
// node for node: its variables come first in both, and each constant of a
// folded program is distinct. The seed is made after the replay so that
// nothing precedes it, and Finish relies on this to keep f as the prefix of
// its gradient program.
func adjoint(b *Builder, nodes []node, out Ref, xs []Ref) []Ref {
	val := make([]Ref, len(nodes))
	for i, n := range nodes {
		switch n.op {
		case OpConst:
			val[i] = b.Const(n.k)
		case OpVar:
			val[i] = xs[int(n.k)]
		default:
			// nodes was built by a Builder, so it is already folded, and the
			// copy binds constants to constants and variables to variables.
			n.a = val[n.a]
			if n.b >= 0 {
				n.b = val[n.b]
			}
			val[i] = b.push(n)
		}
	}

	zero := b.Const(0)
	adj := make([]Ref, len(nodes))
	for i := range adj {
		adj[i] = invalidRef
	}
	adj[out] = b.Const(1)
	// acc accumulates r, or −r when neg, into child c's adjoint. Constants
	// need no adjoint.
	acc := func(c, r Ref, neg bool) {
		switch {
		case r == zero, nodes[c].op == OpConst:
		case adj[c] == invalidRef && neg:
			adj[c] = b.Neg(r)
		case adj[c] == invalidRef:
			adj[c] = r
		case neg:
			adj[c] = b.Sub(adj[c], r)
		default:
			adj[c] = b.Add(adj[c], r)
		}
	}
	add := func(c, r Ref) { acc(c, r, false) }
	sub := func(c, r Ref) { acc(c, r, true) }
	for i := len(nodes) - 1; i >= 0; i-- {
		a, n := adj[i], nodes[i]
		if a == invalidRef || n.op == OpConst || n.op == OpVar {
			continue
		}
		x, y := val[n.a], val[i]
		switch n.op {
		case OpAdd:
			add(n.a, a)
			add(n.b, a)
		case OpSub:
			add(n.a, a)
			sub(n.b, a)
		case OpMul:
			add(n.a, b.Mul(a, val[n.b]))
			add(n.b, b.Mul(a, x))
		case OpDiv:
			t := b.Div(a, val[n.b])
			add(n.a, t)
			sub(n.b, b.Mul(t, y))
		case OpNeg:
			sub(n.a, a)
		case OpTanh:
			add(n.a, b.Mul(a, b.Sub(b.Const(1), b.Square(y))))
		case OpRelu:
			add(n.a, b.Mul(a, b.Step(x)))
		case OpSigmoid:
			add(n.a, b.Mul(a, b.Mul(y, b.Sub(b.Const(1), y))))
		case OpExp:
			add(n.a, b.Mul(a, y))
		case OpLog:
			add(n.a, b.Div(a, x))
		case OpSin:
			add(n.a, b.Mul(a, b.Cos(x)))
		case OpCos:
			sub(n.a, b.Mul(a, b.Sin(x)))
		case OpSqrt:
			add(n.a, b.Mul(a, b.Div(b.Const(0.5), y)))
		case OpSquare:
			add(n.a, b.Mul(a, b.Mul(b.Const(2), x)))
		case OpPowi:
			add(n.a, b.Mul(a, b.Mul(b.Const(n.k), b.Powi(x, int(n.k)-1))))
		case OpAbs:
			add(n.a, b.Mul(a, b.Sign(x)))
		case OpStep, OpSign:
			// zero derivative
		default:
			panic("autodiff: unknown op in adjoint: " + n.op.String())
		}
	}

	grads := make([]Ref, len(xs))
	for i, n := range nodes {
		if n.op == OpVar {
			grads[int(n.k)] = zero
			if adj[i] != invalidRef {
				grads[int(n.k)] = adj[i]
			}
		}
	}
	return grads
}

// program is a graph's Hessian-vector product program P(x, v) = H(x)·v:
// its nodes in topological order, its variable nodes x and v, and its d
// outputs.
type program struct {
	nodes []node
	x, v  []Ref
	outs  []Ref
	pool  bufferPool
}

// hvpProgram returns P, building it on first use: the build is off the
// steady state, and building at Compile would hold P for graphs that are
// never differentiated twice.
func (g *Graph) hvpProgram() *program {
	//automon:allow hotpath one-time build of P on a graph's first second-order call; every later call takes sync.Once's fast path
	g.hvpOnce.Do(func() { g.hvp.Store(g.buildHVP()) })
	return g.hvp.Load()
}

// hessianProgram returns P for one Hessian call when none is cached. A graph
// whose Hessian is constant has it evaluated only at set-up — once by
// core's CurvBound and once by each machine's first DecomposeE — so it
// builds P for each such call and drops it rather than holding it for life;
// any other graph builds and caches P.
func (g *Graph) hessianProgram() *program {
	if g.HasConstantHessian() {
		return g.buildHVP()
	}
	return g.hvpProgram()
}

// buildHVP builds P(x, v) = ∇ₓ⟨∇f(x), v⟩ by reverse over reverse: adjoint
// turns f into ∇f, the dot product with v makes the scalar ⟨∇f(x), v⟩, and
// adjoint again differentiates that in x. Nodes no output reaches are
// dropped.
func (g *Graph) buildHVP() *program {
	d := len(g.vars)
	inner := NewBuilder(2 * d)
	x, v := inner.Vars()[:d], inner.Vars()[d:]
	s := inner.Dot(adjoint(inner, g.nodes, g.out, x), v)

	b := NewBuilder(2 * d)
	hv := adjoint(b, inner.nodes, s, b.Vars())[:d]
	return prune(b.nodes, b.vars, hv)
}

// prune returns the program of nodes with outputs outs, keeping every
// variable node and the nodes some output reaches.
func prune(nodes []node, vars, outs []Ref) *program {
	live := make([]bool, len(nodes))
	for _, r := range vars {
		live[r] = true
	}
	for _, r := range outs {
		live[r] = true
	}
	size := 0
	for i := len(nodes) - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		size++
		if n := nodes[i]; n.a >= 0 {
			live[n.a] = true
			if n.b >= 0 {
				live[n.b] = true
			}
		}
	}
	idx := make([]Ref, len(nodes))
	p := &program{nodes: make([]node, 0, size)}
	for i, n := range nodes {
		if !live[i] {
			continue
		}
		if n.a >= 0 {
			n.a = idx[n.a]
		}
		if n.b >= 0 {
			n.b = idx[n.b]
		}
		idx[i] = Ref(len(p.nodes))
		p.nodes = append(p.nodes, n)
	}
	remap := func(rs []Ref) []Ref {
		out := make([]Ref, len(rs))
		for i, r := range rs {
			out[i] = idx[r]
		}
		return out
	}
	d := len(outs)
	p.x, p.v, p.outs = remap(vars[:d]), remap(vars[d:]), remap(outs)
	p.pool.size = len(p.nodes)
	return p
}
