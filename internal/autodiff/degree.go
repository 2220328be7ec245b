package autodiff

import mathbits "math/bits"

// Degree analysis: each node is assigned a conservative polynomial degree.
// A graph whose output has degree ≤ 2 computes a (multivariate) polynomial of
// degree at most 2, so its Hessian is constant in x. AutoMon uses this to
// decide automatically between ADCD-E (constant Hessian, Lemma 2) and ADCD-X
// (general functions, Lemma 1), mirroring the paper's inspection of the
// Hessian computational graph.

// NonPolynomial is the degree reported for graphs that are not polynomials
// in the inputs (or whose degree exceeds maxTrackedDegree).
const NonPolynomial = 1 << 20

const maxTrackedDegree = 64

// Degree returns the conservative polynomial degree of the graph's output:
// 0 for constants, 1 for affine functions, 2 for quadratics, and so on, or
// NonPolynomial when the output is not a polynomial in the variables. The
// analysis is sound (never underestimates) but may overestimate: for example
// x*x - x² is reported as degree 2 even though it is identically zero.
func (g *Graph) Degree() int {
	deg := make([]int, len(g.nodes))
	for i, n := range g.nodes {
		switch n.op {
		case OpConst:
			deg[i] = 0
		case OpVar:
			deg[i] = 1
		case OpAdd, OpSub:
			deg[i] = maxDeg(deg[n.a], deg[n.b])
		case OpMul:
			deg[i] = sumDeg(deg[n.a], deg[n.b])
		case OpDiv:
			if deg[n.b] == 0 {
				deg[i] = deg[n.a]
			} else {
				deg[i] = NonPolynomial
			}
		case OpNeg:
			deg[i] = deg[n.a]
		case OpSquare:
			deg[i] = sumDeg(deg[n.a], deg[n.a])
		case OpPowi:
			k := int(n.k)
			switch {
			case deg[n.a] == 0:
				deg[i] = 0
			case k < 0:
				deg[i] = NonPolynomial
			default:
				d := deg[n.a]
				total := 0
				for j := 0; j < k; j++ {
					total = sumDeg(total, d)
				}
				deg[i] = total
			}
		default:
			// Transcendental / non-smooth op: polynomial only when its
			// argument is constant.
			if deg[n.a] == 0 {
				deg[i] = 0
			} else {
				deg[i] = NonPolynomial
			}
		}
	}
	return deg[g.out]
}

// HasConstantHessian reports whether the Hessian of the graph's function is
// provably independent of x (degree ≤ 2). This is the trigger for ADCD-E.
func (g *Graph) HasConstantHessian() bool {
	d := g.Degree()
	return d <= 2
}

// HessianBlocks returns the block-diagonal structure of the Hessian: a
// partition of the variables into blocks, each ascending and the blocks
// ordered by their first variable, such that H(x)ᵢⱼ = 0 at every x whenever
// i and j lie in different blocks. It is computed once when the graph is
// built. The returned slices must not be modified.
func (g *Graph) HessianBlocks() [][]int { return g.blocks }

// hessianBlocks derives HessianBlocks from the graph. By the second-order
// chain rule, H = Σₙ adj(n)·Σ_{a,b} ∂²φₙ/∂a∂b·∇a∇bᵀ over the nodes n with
// children a, b, so node n contributes only inside deps(n) × deps(n), where
// deps(n) is the set of variables n reads. An affine node contributes
// nothing: its local second derivatives vanish, or pair with the zero
// gradient of a constant operand. Every other node therefore joins all of
// its variables into one block (union-find). The rule may merge more than
// necessary, which only costs a bigger block; it must never merge less,
// because a missed coupling would drop a nonzero Hessian entry.
func (g *Graph) hessianBlocks() [][]int {
	d := len(g.vars)
	words := (d + 63) / 64
	deps := make([]uint64, len(g.nodes)*words) // node i's variables as a bitset
	depsOf := func(r Ref) []uint64 { return deps[int(r)*words : (int(r)+1)*words] }
	parent := make([]int, d)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i, n := range g.nodes {
		dep := depsOf(Ref(i))
		switch n.op {
		case OpConst:
			continue
		case OpVar:
			k := int(n.k)
			dep[k/64] |= 1 << (k % 64)
			continue
		}
		a := depsOf(n.a)
		copy(dep, a)
		bConst := true
		if n.b >= 0 {
			b := depsOf(n.b)
			for w := range dep {
				dep[w] |= b[w]
			}
			bConst = noBits(b)
		}
		if !couples(n.op, noBits(a), bConst) {
			continue
		}
		root := -1
		for w, bits := range dep {
			for ; bits != 0; bits &= bits - 1 {
				r := find(w*64 + mathbits.TrailingZeros64(bits))
				if root < 0 {
					root = r
				} else if r != root {
					parent[r] = root
				}
			}
		}
	}
	var blocks [][]int
	index := make([]int, d) // root → 1 + its block's position in blocks
	for v := 0; v < d; v++ {
		r := find(v)
		if index[r] == 0 {
			blocks = append(blocks, nil)
			index[r] = len(blocks)
		}
		blocks[index[r]-1] = append(blocks[index[r]-1], v)
	}
	return blocks
}

// couples reports whether a node can have a nonzero second derivative that
// pairs two of its variables, given which operands are constant in x
// (degree 0). Add, Sub and Neg are affine; so are a Mul with a constant
// factor, a Div by a constant, and a unary op of a constant.
func couples(op Op, aConst, bConst bool) bool {
	switch op {
	case OpAdd, OpSub, OpNeg:
		return false
	case OpMul:
		return !aConst && !bConst
	case OpDiv:
		return !bConst
	}
	return !aConst
}

func noBits(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

func maxDeg(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func sumDeg(a, b int) int {
	if a >= NonPolynomial || b >= NonPolynomial {
		return NonPolynomial
	}
	s := a + b
	if s > maxTrackedDegree {
		return NonPolynomial
	}
	return s
}
