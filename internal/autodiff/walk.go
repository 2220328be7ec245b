package autodiff

// Read-only access to a graph's Hessian-vector product program P(x, v) =
// H(x)·v, for evaluators that interpret it under another arithmetic (e.g.
// internal/interval's certified Hessian enclosures). P holds primal ops
// only, so such an evaluator needs one case per op and no derivative rule,
// and where its arithmetic agrees with float64 it reproduces HVP bit for bit.

// NodeSpec is a read-only view of one program node. A and B are child node
// indices into the topological order, or -1 when the slot is unused (unary
// ops, constants, variables). K carries the constant value (OpConst), the
// variable index (OpVar), or the integer exponent (OpPowi).
type NodeSpec struct {
	Op   Op
	A, B int32
	K    float64
}

// HVPProgram returns P, the program HVP, Hessian and EigGrad evaluate,
// building it on first use: its nodes in topological order and the node
// indices of its Dim outputs, H(x)·v. P's variables 0…Dim−1 are x and
// Dim…2·Dim−1 are v.
func (g *Graph) HVPProgram() (specs []NodeSpec, outs []int) {
	p := g.hvpProgram()
	specs = make([]NodeSpec, len(p.nodes))
	for i, n := range p.nodes {
		specs[i] = NodeSpec{Op: n.op, A: int32(n.a), B: int32(n.b), K: n.k}
	}
	outs = make([]int, len(p.outs))
	for i, o := range p.outs {
		outs[i] = int(o)
	}
	return specs, outs
}
