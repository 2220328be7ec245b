package core

import (
	"automon/internal/linalg"
)

// Node is the AutoMon node algorithm (Algorithm 1, lines 9–14). It holds the
// local vector, the slack assigned by the coordinator, and the current safe
// zone, and checks the local constraints on every data update. Nodes never
// talk to each other; all returned Violations are addressed to the
// coordinator via whatever messaging fabric the application uses.
//
// A node lends, it does not copy: its one Violation, its vector and its zone
// live in the node and are rewritten in place, so checking, answering a pull
// and installing a sync allocate nothing once the first sync is in. The field
// order keeps a Node in one 352-byte size class.
type Node struct {
	ID int
	F  *Function

	// viol is the one Violation Check lends; its X is the node's current
	// raw local vector.
	viol  Violation
	slack []float64
	v     []float64 // scratch: slacked vector x + s
	diff  []float64 // scratch for the ADCD-E safe-zone check

	zone SafeZone

	// eFactor is the ADCD-E eigen-factor, retained across syncs (shipped
	// once).
	eFactor *linalg.EigFactor

	// el is the safe-zone check-elision state (budget.go); inert until
	// EnableElision.
	el elision

	haveZone bool
	// ownBox reports that zone.BLo and zone.BHi are buffers this node
	// allocated (for an ADCD-X zone), which the next ADCD-X sync refills. A
	// hand-crafted zone's box belongs to its builder.
	ownBox bool
}

// NewNode creates a node for function f. The node is inert until the first
// Sync message arrives.
func NewNode(id int, f *Function) *Node {
	d := f.Dim()
	return &Node{
		ID:    id,
		F:     f,
		viol:  Violation{NodeID: id, X: make([]float64, d)},
		slack: make([]float64, d),
		v:     make([]float64, d),
		diff:  make([]float64, d),
	}
}

// LocalVector returns the node's current raw local vector (the payload of a
// DataResponse). The slice is the node's own, lent until its next update or
// SetData: a reader copies what it keeps, and writes nothing.
func (n *Node) LocalVector() []float64 { return n.viol.X }

// Respond fills m with the node's reply to a data request. m.X is the node's
// own vector, not a copy, so m must be encoded before the node's next update.
func (n *Node) Respond(m *DataResponse) { m.NodeID, m.X = n.ID, n.viol.X }

// SetData replaces the local vector without checking constraints. Any
// outstanding elision budget is invalidated: it was computed for the old
// vector.
func (n *Node) SetData(x []float64) {
	copy(n.viol.X, x)
	n.resetBudget()
}

// UpdateData replaces the local vector and checks the local constraints,
// returning a Violation to forward to the coordinator, or nil when all
// constraints hold (no communication needed). Before the first sync the node
// is silent.
//
//automon:hotpath
func (n *Node) UpdateData(x []float64) *Violation {
	n.SetData(x)
	return n.Check()
}

// Check evaluates the local constraints against the current vector:
// neighborhood first, then the ADCD safe zone, then the §3.7 sanity check,
// with one evaluation of f serving the last two (SafeZone.classify).
// It returns nil when all hold, and otherwise the node's one Violation, whose
// X is the node's own vector. Both are lent until the node's next update,
// SetData or check: a fabric encodes or resolves the violation before then,
// and writes nothing in it. Like every check it invalidates the elision
// budget, so the next UpdateElided checks exactly.
//
//automon:hotpath
func (n *Node) Check() *Violation {
	v, _ := n.check(nil)
	return v
}

// check is Check at the slacked point n.v = x + s, which it leaves built,
// returning f(n.v) too (0 on a neighborhood violation); a non-nil grad
// receives ∇f(n.v) from the same forward pass (see SafeZone.classify). It
// invalidates the elision budget: n.v is the centre of the budget's ball, and
// a check may move it.
func (n *Node) check(grad []float64) (*Violation, float64) {
	n.resetBudget()
	if !n.haveZone {
		return nil, 0
	}
	linalg.Add(n.v, n.viol.X, n.slack)
	kind, fv := n.zone.classify(n.F, n.v, n.diff, grad)
	if kind == 0 {
		return nil, fv
	}
	n.viol.NodeID, n.viol.Kind = n.ID, kind
	return &n.viol, fv
}

// CurrentValue returns the node's current approximation of f(x̄), namely
// f(x0) from the last sync. It returns 0 before the first sync.
func (n *Node) CurrentValue() float64 {
	if !n.haveZone {
		return 0
	}
	return n.zone.F0
}

// ApplySync installs a new safe zone and slack from the coordinator and
// reports whether it did: a sync this node cannot check — a slack, vectors
// or an ADCD-E factor that do not fit F, or an ADCD-E zone whose factor never
// arrived (a faulty fabric separated it from the first sync) — is refused
// and the previous zone kept. The elision budget is invalidated: it was
// derived from the previous zone. The zone is rewritten in place: it holds
// the message's read-only X0 and GradF0 themselves (see Sync), and an ADCD-X
// zone's neighborhood box is refilled in the node's own buffers.
//
//automon:hotpath
func (n *Node) ApplySync(m *Sync) bool {
	if len(m.Slack) != len(n.slack) {
		// A partial copy would leave this node's slack out of the
		// partition's zero sum, and the ε guarantee void.
		return false
	}
	n.resetBudget()
	if m.Zone != nil { // hand-crafted (MethodCustom) zone, in-memory only
		n.zone = *m.Zone
		n.haveZone, n.ownBox = true, false
		copy(n.slack, m.Slack)
		return true
	}
	d := n.F.Dim()
	if len(m.X0) != d || len(m.GradF0) != d {
		return false
	}
	if m.WithMatrix {
		//automon:allow hotpath the factor rides only the first sync to a node, so its check runs once per node
		if m.Matrix == nil || m.Matrix.Check(d) != nil {
			return false
		}
		n.eFactor = m.Matrix
	}
	if m.Method == MethodE && n.eFactor == nil {
		return false
	}
	var lo, hi []float64
	if n.ownBox {
		lo, hi = n.zone.BLo, n.zone.BHi
	}
	z := &n.zone
	*z = SafeZone{
		Method: m.Method,
		Kind:   m.Kind,
		X0:     m.X0,
		F0:     m.F0,
		GradF0: m.GradF0,
		L:      m.L,
		U:      m.U,
		Lam:    m.Lam,
	}
	switch m.Method {
	case MethodX:
		z.BLo, z.BHi = NeighborhoodBox(n.F, m.X0, m.R, lo, hi)
	case MethodE:
		z.H = n.eFactor
	}
	n.haveZone, n.ownBox = true, m.Method == MethodX
	copy(n.slack, m.Slack)
	return true
}

// ApplySlack installs a rebalanced slack vector from a lazy sync and
// reports whether it did: a slack whose length is not F's dimension is
// refused and the previous slack kept, as ApplySync refuses one. The
// elision budget is invalidated: the slacked point it was computed at moved.
//
//automon:hotpath
func (n *Node) ApplySlack(m *Slack) bool {
	if len(m.Slack) != len(n.slack) {
		return false
	}
	copy(n.slack, m.Slack)
	n.resetBudget()
	return true
}

// Zone exposes the node's current safe zone (nil before the first sync);
// used by tests and by diagnostic tooling. The zone is the node's own and the
// next ApplySync rewrites it in place: a caller that keeps one across syncs
// copies it.
func (n *Node) Zone() *SafeZone {
	if !n.haveZone {
		return nil
	}
	return &n.zone
}
