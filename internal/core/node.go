package core

import (
	"automon/internal/linalg"
)

// Node is the AutoMon node algorithm (Algorithm 1, lines 9–14). It holds the
// local vector, the slack assigned by the coordinator, and the current safe
// zone, and checks the local constraints on every data update. Nodes never
// talk to each other; all returned Violations are addressed to the
// coordinator via whatever messaging fabric the application uses.
type Node struct {
	ID int
	F  *Function

	x     []float64 // current raw local vector
	slack []float64
	v     []float64 // scratch: slacked vector x + s
	diff  []float64 // scratch for the ADCD-E safe-zone check

	zone     *SafeZone
	haveZone bool

	// eFactor is the ADCD-E eigen-factor, retained across syncs (shipped
	// once).
	eFactor *linalg.EigFactor

	// el is the safe-zone check-elision state (budget.go); inert until
	// EnableElision.
	el elision
}

// NewNode creates a node for function f. The node is inert until the first
// Sync message arrives.
func NewNode(id int, f *Function) *Node {
	d := f.Dim()
	return &Node{
		ID:    id,
		F:     f,
		x:     make([]float64, d),
		slack: make([]float64, d),
		v:     make([]float64, d),
		diff:  make([]float64, d),
	}
}

// LocalVector returns the node's current raw local vector (the payload of a
// DataResponse). The returned slice is a copy.
func (n *Node) LocalVector() []float64 { return linalg.Clone(n.x) }

// SetData replaces the local vector without checking constraints. Any
// outstanding elision budget is invalidated: it was computed for the old
// vector.
func (n *Node) SetData(x []float64) {
	copy(n.x, x)
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
// neighborhood first, then the ADCD safe zone, then the §3.7 sanity check.
func (n *Node) Check() *Violation {
	if !n.haveZone {
		return nil
	}
	linalg.Add(n.v, n.x, n.slack)
	z := n.zone
	if !z.InNeighborhood(n.v) {
		return &Violation{NodeID: n.ID, Kind: ViolationNeighborhood, X: n.LocalVector()} //automon:allow hotpath violation path ends the silent round: the copied vector is the message payload
	}
	if !z.ContainsScratch(n.F, n.v, n.diff) {
		return &Violation{NodeID: n.ID, Kind: ViolationSafeZone, X: n.LocalVector()} //automon:allow hotpath violation path ends the silent round: the copied vector is the message payload
	}
	if z.Method != MethodNone && !z.InAdmissibleRegion(n.F, n.v) {
		return &Violation{NodeID: n.ID, Kind: ViolationFaulty, X: n.LocalVector()} //automon:allow hotpath violation path ends the silent round: the copied vector is the message payload
	}
	return nil
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
// reports whether it did: a sync this node cannot check — vectors or an
// ADCD-E factor that do not fit F, or an ADCD-E zone whose factor never
// arrived (a faulty fabric separated it from the first sync) — is refused
// and the previous zone kept. The elision budget is invalidated: it was
// derived from the previous zone.
func (n *Node) ApplySync(m *Sync) bool {
	n.resetBudget()
	if m.Zone != nil { // hand-crafted (MethodCustom) zone, in-memory only
		n.zone = m.Zone
		n.haveZone = true
		copy(n.slack, m.Slack)
		return true
	}
	d := n.F.Dim()
	if len(m.X0) != d || len(m.GradF0) != d {
		return false
	}
	if m.WithMatrix {
		if m.Matrix == nil || m.Matrix.Check(d) != nil {
			return false
		}
		n.eFactor = m.Matrix
	}
	if m.Method == MethodE && n.eFactor == nil {
		return false
	}
	z := &SafeZone{
		Method: m.Method,
		Kind:   m.Kind,
		X0:     linalg.Clone(m.X0),
		F0:     m.F0,
		GradF0: linalg.Clone(m.GradF0),
		L:      m.L,
		U:      m.U,
		Lam:    m.Lam,
	}
	switch m.Method {
	case MethodX:
		z.BLo, z.BHi = NeighborhoodBox(n.F, m.X0, m.R)
	case MethodE:
		z.H = n.eFactor
	}
	n.zone = z
	n.haveZone = true
	copy(n.slack, m.Slack)
	return true
}

// ApplySlack installs a rebalanced slack vector from a lazy sync. The
// elision budget is invalidated: the slacked point it was computed at moved.
func (n *Node) ApplySlack(m *Slack) {
	copy(n.slack, m.Slack)
	n.resetBudget()
}

// Zone exposes the node's current safe zone (nil before the first sync);
// used by tests and by diagnostic tooling.
func (n *Node) Zone() *SafeZone {
	if !n.haveZone {
		return nil
	}
	return n.zone
}
