// Package autodiff implements computational-graph automatic differentiation,
// the substrate AutoMon uses in place of JAX. A function f : R^d → R is
// expressed once as a program over Builder ops; the resulting Graph can then
// be evaluated and differentiated at arbitrary points:
//
//   - Value:    forward evaluation, O(|graph|)
//   - Grad:     reverse-mode gradient, O(|graph|)
//   - HVP:      Hessian-vector product via forward-over-reverse, O(|graph|)
//   - Hessian:  d HVPs against the basis vectors, O(d·|graph|)
//   - Tangent:  graph-level forward-mode transform producing the program for
//     s(x, v) = ∇f(x)ᵀv, which composes with HVP to give third-order
//     directional derivatives such as ∇ₓ(vᵀH(x)v)
//
// The graph also carries a polynomial-degree analysis (degree.go) used to
// detect constant Hessians, mirroring AutoMon's inspection of the Hessian
// computational graph to choose between ADCD-X and ADCD-E, and the Hessian's
// block-diagonal structure (HessianBlocks), which lets eigensolves work
// block by block.
package autodiff

import (
	"fmt"
	"math"
)

// Op identifies a node's operation.
type Op uint8

// Supported operations. Binary ops use both children; unary ops use child A
// only; OpConst uses only K; OpVar uses K as the variable index.
const (
	OpConst Op = iota
	OpVar
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpTanh
	OpRelu
	OpStep // heaviside: 1 if a > 0 else 0 (derivative of relu; own derivative 0)
	OpSigmoid
	OpExp
	OpLog
	OpSin
	OpCos
	OpSqrt
	OpSquare
	OpPowi // integer power, exponent in K
	OpAbs
	OpSign // sign(a) ∈ {-1, 0, 1}; derivative 0 (derivative of abs)
)

var opNames = [...]string{
	"const", "var", "add", "sub", "mul", "div", "neg", "tanh", "relu", "step",
	"sigmoid", "exp", "log", "sin", "cos", "sqrt", "square", "powi", "abs", "sign",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Ref is a handle to a node within a Graph. Refs are only meaningful for the
// graph that produced them.
type Ref int32

const invalidRef Ref = -1

type node struct {
	op   Op
	a, b Ref
	k    float64 // constant value, variable index, or integer exponent
}

// Graph is an immutable compiled program computing a scalar function of Dim
// variables. Nodes are stored in topological (construction) order.
type Graph struct {
	nodes []node
	vars  []Ref // vars[i] is the node holding variable i
	out   Ref
	pool  bufferPool

	blocks [][]int // HessianBlocks, fixed at Finish
}

// Program builds a scalar expression from the variable nodes x. It is the
// user-facing "source code of f": the same role as the Python snippet passed
// to AutoMon in the paper.
type Program func(b *Builder, x []Ref) Ref

// Compile runs program against dim fresh variables and returns the resulting
// graph. It panics if the program returns an invalid ref, since that is a
// programming error in the function definition.
func Compile(dim int, program Program) *Graph {
	b := NewBuilder(dim)
	out := program(b, b.Vars())
	return b.Finish(out)
}

// Dim returns the number of input variables.
func (g *Graph) Dim() int { return len(g.vars) }

// Size returns the number of nodes in the graph.
func (g *Graph) Size() int { return len(g.nodes) }

// Builder incrementally constructs a Graph. All methods return Refs into the
// graph under construction. Builder applies light constant folding and
// algebraic simplification (x+0, x*1, x*0, …) so that structurally sparse
// programs (e.g. matrix products with zero weights) stay small.
type Builder struct {
	nodes  []node
	vars   []Ref
	consts map[float64]Ref
}

// NewBuilder returns a Builder with dim variables already created.
func NewBuilder(dim int) *Builder {
	b := &Builder{consts: make(map[float64]Ref)}
	b.vars = make([]Ref, dim)
	for i := 0; i < dim; i++ {
		b.vars[i] = b.push(node{op: OpVar, a: invalidRef, b: invalidRef, k: float64(i)})
	}
	return b
}

// Vars returns the variable refs, in index order. The returned slice must
// not be modified.
func (b *Builder) Vars() []Ref { return b.vars }

// Finish seals the builder into an immutable Graph with the given output.
func (b *Builder) Finish(out Ref) *Graph {
	if out < 0 || int(out) >= len(b.nodes) {
		panic("autodiff: Finish with invalid output ref")
	}
	g := &Graph{nodes: b.nodes, vars: b.vars, out: out}
	g.pool.size = len(b.nodes)
	g.blocks = g.hessianBlocks()
	return g
}

func (b *Builder) push(n node) Ref {
	b.nodes = append(b.nodes, n)
	return Ref(len(b.nodes) - 1)
}

func (b *Builder) isConst(r Ref) (float64, bool) {
	n := b.nodes[r]
	if n.op == OpConst {
		return n.k, true
	}
	return 0, false
}

// Const returns a node holding the constant v. Equal constants share a node.
func (b *Builder) Const(v float64) Ref {
	if r, ok := b.consts[v]; ok {
		return r
	}
	r := b.push(node{op: OpConst, a: invalidRef, b: invalidRef, k: v})
	b.consts[v] = r
	return r
}

// Add returns x + y.
func (b *Builder) Add(x, y Ref) Ref {
	cx, okx := b.isConst(x)
	cy, oky := b.isConst(y)
	switch {
	case okx && oky:
		return b.Const(cx + cy)
	case okx && cx == 0:
		return y
	case oky && cy == 0:
		return x
	}
	return b.push(node{op: OpAdd, a: x, b: y})
}

// Sub returns x - y.
func (b *Builder) Sub(x, y Ref) Ref {
	cx, okx := b.isConst(x)
	cy, oky := b.isConst(y)
	switch {
	case okx && oky:
		return b.Const(cx - cy)
	case oky && cy == 0:
		return x
	case okx && cx == 0:
		return b.Neg(y)
	}
	return b.push(node{op: OpSub, a: x, b: y})
}

// Mul returns x * y.
func (b *Builder) Mul(x, y Ref) Ref {
	cx, okx := b.isConst(x)
	cy, oky := b.isConst(y)
	switch {
	case okx && oky:
		return b.Const(cx * cy)
	case okx && cx == 0, oky && cy == 0:
		return b.Const(0)
	case okx && cx == 1: //automon:allow nofloateq algebraic identity 1·y = y is exact in IEEE-754
		return y
	case oky && cy == 1: //automon:allow nofloateq algebraic identity x·1 = x is exact in IEEE-754
		return x
	}
	return b.push(node{op: OpMul, a: x, b: y})
}

// Div returns x / y.
func (b *Builder) Div(x, y Ref) Ref {
	cx, okx := b.isConst(x)
	cy, oky := b.isConst(y)
	switch {
	case okx && oky && cy != 0:
		return b.Const(cx / cy)
	case oky && cy == 1: //automon:allow nofloateq algebraic identity x/1 = x is exact in IEEE-754
		return x
	}
	return b.push(node{op: OpDiv, a: x, b: y})
}

// Neg returns -x.
func (b *Builder) Neg(x Ref) Ref {
	if c, ok := b.isConst(x); ok {
		return b.Const(-c)
	}
	return b.push(node{op: OpNeg, a: x, b: invalidRef})
}

func (b *Builder) unary(op Op, x Ref, f func(float64) float64) Ref {
	if c, ok := b.isConst(x); ok {
		return b.Const(f(c))
	}
	return b.push(node{op: op, a: x, b: invalidRef})
}

// Tanh returns tanh(x).
func (b *Builder) Tanh(x Ref) Ref { return b.unary(OpTanh, x, math.Tanh) }

// Relu returns max(x, 0).
func (b *Builder) Relu(x Ref) Ref {
	return b.unary(OpRelu, x, func(v float64) float64 { return math.Max(v, 0) })
}

// Step returns 1 if x > 0 else 0.
func (b *Builder) Step(x Ref) Ref {
	return b.unary(OpStep, x, func(v float64) float64 {
		if v > 0 {
			return 1
		}
		return 0
	})
}

// Sigmoid returns 1/(1+exp(-x)).
func (b *Builder) Sigmoid(x Ref) Ref {
	return b.unary(OpSigmoid, x, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
}

// Exp returns e^x.
func (b *Builder) Exp(x Ref) Ref { return b.unary(OpExp, x, math.Exp) }

// Log returns the natural logarithm of x.
func (b *Builder) Log(x Ref) Ref { return b.unary(OpLog, x, math.Log) }

// Sin returns sin(x).
func (b *Builder) Sin(x Ref) Ref { return b.unary(OpSin, x, math.Sin) }

// Cos returns cos(x).
func (b *Builder) Cos(x Ref) Ref { return b.unary(OpCos, x, math.Cos) }

// Sqrt returns √x.
func (b *Builder) Sqrt(x Ref) Ref { return b.unary(OpSqrt, x, math.Sqrt) }

// Square returns x².
func (b *Builder) Square(x Ref) Ref {
	return b.unary(OpSquare, x, func(v float64) float64 { return v * v })
}

// Abs returns |x|.
func (b *Builder) Abs(x Ref) Ref { return b.unary(OpAbs, x, math.Abs) }

// Sign returns sign(x).
func (b *Builder) Sign(x Ref) Ref {
	return b.unary(OpSign, x, func(v float64) float64 {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		}
		return 0
	})
}

// Powi returns x^k for integer k. k may be negative (x ≠ 0 at evaluation).
func (b *Builder) Powi(x Ref, k int) Ref {
	switch k {
	case 0:
		return b.Const(1)
	case 1:
		return x
	case 2:
		return b.Square(x)
	}
	if c, ok := b.isConst(x); ok {
		return b.Const(math.Pow(c, float64(k)))
	}
	return b.push(node{op: OpPowi, a: x, b: invalidRef, k: float64(k)})
}

// Sum returns the sum of xs (0 for empty input).
func (b *Builder) Sum(xs ...Ref) Ref {
	if len(xs) == 0 {
		return b.Const(0)
	}
	// Balanced reduction keeps the graph shallow.
	for len(xs) > 1 {
		tmp := make([]Ref, 0, (len(xs)+1)/2)
		for i := 0; i+1 < len(xs); i += 2 {
			tmp = append(tmp, b.Add(xs[i], xs[i+1]))
		}
		if len(xs)%2 == 1 {
			tmp = append(tmp, xs[len(xs)-1])
		}
		xs = tmp
	}
	return xs[0]
}

// Dot returns Σ xs[i]*ys[i]. It panics on length mismatch.
func (b *Builder) Dot(xs, ys []Ref) Ref {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("autodiff: Dot length mismatch %d vs %d", len(xs), len(ys)))
	}
	terms := make([]Ref, len(xs))
	for i := range xs {
		terms[i] = b.Mul(xs[i], ys[i])
	}
	return b.Sum(terms...)
}

// SqNorm returns Σ xs[i]².
func (b *Builder) SqNorm(xs []Ref) Ref {
	terms := make([]Ref, len(xs))
	for i := range xs {
		terms[i] = b.Square(xs[i])
	}
	return b.Sum(terms...)
}

// ConstVec returns constant nodes for each entry of v.
func (b *Builder) ConstVec(v []float64) []Ref {
	out := make([]Ref, len(v))
	for i, c := range v {
		out[i] = b.Const(c)
	}
	return out
}

// Affine returns W·x + bias as a vector of nodes, where W is rows×len(x).
func (b *Builder) Affine(w [][]float64, x []Ref, bias []float64) []Ref {
	out := make([]Ref, len(w))
	for i, row := range w {
		if len(row) != len(x) {
			panic(fmt.Sprintf("autodiff: Affine row %d has %d weights for %d inputs", i, len(row), len(x)))
		}
		terms := make([]Ref, 0, len(x)+1)
		for j, wj := range row {
			terms = append(terms, b.Mul(b.Const(wj), x[j]))
		}
		if bias != nil {
			terms = append(terms, b.Const(bias[i]))
		}
		out[i] = b.Sum(terms...)
	}
	return out
}

// Map applies a unary builder op to every element of xs.
func (b *Builder) Map(f func(Ref) Ref, xs []Ref) []Ref {
	out := make([]Ref, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
