// Safe-zone check elision: a conservative distance-to-boundary budget that
// lets the ingestion fast path skip exact safe-zone checks.
//
// After every exact check that passes at the slacked point v = x + s, the
// node computes a radius ρ such that *no* local constraint — neighborhood
// box, ADCD safe zone, §3.7 admissible region — can fail at any point v'
// with ‖v' − v‖₂ ≤ ρ. Every elided step spends an upper bound on its
// displacement ‖v' − v‖₂ from ρ: UpdateElided measures it in the O(d) pass
// that copies a whole vector in, UpdateSparse carries a bound on its square
// across steps that move a few cells. While the budget stays positive the
// exact check is elided; the event that exhausts it checks (and, on a pass,
// refreshes the budget). Elided events are *proven* non-violations, so
// violations and syncs are bit-identical to the per-event path. DESIGN.md
// ("Check elision") carries the derivation; the differential and fuzz
// harnesses in internal/ingest enforce the invariant.
package core

import (
	"math"

	"automon/internal/linalg"
)

// budgetSafety shaves a fraction off every refreshed budget so ulp-level
// rounding in the Taylor-style bounds below can never overstate the true
// distance to the boundary.
const budgetSafety = 0.999

// elision is the per-node check-elision state. Budgets are derived from the
// installed zone and invalidated on any event that changes what the exact
// check would see (sync, slack rebalance, raw SetData). The bools come last,
// so they share one word (see Node).
type elision struct {
	curv       float64 // bound on ‖∇²f‖₂ (see Function.CurvBound)
	radius     float64 // ρ of the last refresh: the safe ball around n.v
	budget     float64 // remaining movement radius (L2, on x)
	grad       []float64
	enabled    bool
	domainOnly bool // curv valid only inside F's domain box
	valid      bool
}

// EnableElision turns on safe-zone check elision for this node. It reports
// false — leaving the node on the per-event path — when no curvature bound
// is available for the function (non-constant Hessian and no WithCurvature).
// The resolved bound is cached on the node so the hot path never touches the
// sync.Once inside CurvBound.
func (n *Node) EnableElision() bool {
	k, domainOnly, ok := n.F.CurvBound()
	if !ok {
		return false
	}
	n.el.enabled = true
	n.el.curv = k
	n.el.domainOnly = domainOnly
	if n.el.grad == nil {
		n.el.grad = make([]float64, n.F.Dim())
	}
	n.resetBudget()
	return true
}

// ElisionEnabled reports whether EnableElision succeeded on this node.
func (n *Node) ElisionEnabled() bool { return n.el.enabled }

// resetBudget invalidates the elision budget; the next SpendBudget forces an
// exact check. Called by every check (which may move the ball's centre n.v)
// and whenever the zone, slack, or raw vector changes outside the elided
// update path.
func (n *Node) resetBudget() {
	n.el.valid = false
	n.el.budget = 0
}

// SpendBudget debits norm — an upper bound on the L2 change of the local
// vector caused by the next event — from the elision budget and reports
// whether an exact check is required before that event's effect can be
// trusted. A NaN or negative norm invalidates the budget (forcing exact
// checks), never the other way around: accounting errors degrade throughput,
// not soundness.
//
//automon:hotpath
func (n *Node) SpendBudget(norm float64) bool {
	e := &n.el
	if !e.enabled || !e.valid {
		return true
	}
	if !(norm >= 0) {
		e.valid = false
		e.budget = 0
		return true
	}
	e.budget -= norm
	return !(e.budget > 0)
}

// UpdateElided is the elided node step for a whole vector (UpdateSparse is
// its sparse form), shared by Group.Update and transport.NodeClient: write
// the vector into the node, spend its displacement from the last checked
// point (the ball's centre n.v) from that check's radius, and check only on
// exhaustion. Every check invalidates the budget, so a valid budget belongs
// to the current n.v. skipped reports a step whose check the budget proved
// unnecessary. A pull reads the node's vector as is and needs no budget
// reset: a budget depends only on zone, slack and the checked point. Without
// EnableElision every step is UpdateData.
//
//automon:hotpath
func (n *Node) UpdateElided(x []float64) (v *Violation, skipped bool) {
	e := &n.el
	if !e.enabled {
		return n.UpdateData(x), false
	}
	if !e.valid {
		return n.UpdateDataRefresh(x), false
	}
	e.budget = e.radius
	if !n.SpendBudget(math.Sqrt(linalg.CopyShiftSqDist(n.viol.X, x, n.slack, n.v))) {
		return nil, true
	}
	return n.checkRefresh(), false
}

// UpdateSparse is UpdateElided for a step that moves a few cells: it sets
// x[idx[k]] = vals[k] and spends the same displacement in O(len(idx)). The
// budget carries the displacement's bound σ = ρ − budget: the step adds
// δᵢ'² − δᵢ² to σ² for each cell, δᵢ = (xᵢ + sᵢ) − vᵢ before and after the
// write, plus (2·len(idx) + 10)·u·(ρ² + Σ δᵢ'² + δᵢ²), u = 2⁻⁵³, which bounds
// the step's rounding (DESIGN.md "Check elision"), and spends the root.
//
//automon:hotpath
func (n *Node) UpdateSparse(idx []int, vals []float64) (v *Violation, skipped bool) {
	e := &n.el
	x, s, c := n.viol.X, n.slack, n.v
	sigma := e.radius - e.budget
	sq, mass := sigma*sigma, e.radius*e.radius
	for k, i := range idx {
		before := x[i] + s[i] - c[i]
		x[i] = vals[k]
		after := x[i] + s[i] - c[i]
		sq += after*after - before*before
		mass += after*after + before*before
	}
	if !e.enabled {
		return n.Check(), false
	}
	e.budget = e.radius // an invalid budget stays invalid: the spend checks
	if !n.SpendBudget(math.Sqrt(sq + float64(2*len(idx)+10)*0x1p-53*mass)) {
		return nil, true
	}
	return n.checkRefresh(), false
}

// UpdateDataRefresh is UpdateData for the elided path: it replaces the local
// vector, runs the exact constraint check, and — when the check passes —
// refreshes the elision budget from the current zone geometry. One forward
// pass serves the ADCD constraints, the §3.7 sanity check and the budget
// refresh: on a built-in zone the check's evaluation of f is f.Grad, whose
// value and gradient the refresh reuses. On a violation the budget stays
// invalid (the coordinator's resolution will reset state anyway).
//
//automon:hotpath
func (n *Node) UpdateDataRefresh(x []float64) *Violation {
	copy(n.viol.X, x)
	return n.checkRefresh()
}

// checkRefresh checks the current vector (which invalidates the budget) and,
// on a pass, refreshes the budget from the check's own f(v) and ∇f(v). A
// hand-crafted zone exposes no geometry to bound, so its check evaluates
// f.Value alone and the budget stays invalid: such a node runs per-event.
func (n *Node) checkRefresh() *Violation {
	var grad []float64
	if z := &n.zone; n.el.enabled && n.haveZone && z.Custom == nil && z.Method != MethodCustom {
		grad = n.el.grad
	}
	v, fv := n.check(grad)
	if v == nil && grad != nil {
		n.refreshBudget(fv)
	}
	return v
}

// refreshBudget recomputes the distance-to-boundary budget at the slacked
// point n.v, where a passing check has just evaluated fv = f(n.v) and left
// ∇f(n.v) in el.grad. It mirrors the constraint structure of
// SafeZone.classify: for each constraint it computes the margin (how far the
// constraint is from failing) and the fastest the constraint's left-hand
// side can move per unit of L2 vector movement (a first-order Lipschitz term
// plus a curvature term), then inverts that growth curve via solveRadius.
// Any NaN collapses the budget to invalid, which degrades to per-event
// checking.
func (n *Node) refreshBudget(fv float64) {
	e := &n.el
	z := &n.zone
	v := n.v
	gnorm := linalg.Norm2(e.grad)
	k := e.curv

	// §3.7 admissible region L ≤ f(v) ≤ U. Check enforces it for every
	// method (for MethodNone it is the safe zone itself), so both margins
	// bound the budget for all methods.
	budget := solveRadius(gnorm, k, z.U-fv)
	budget = math.Min(budget, solveRadius(gnorm, k, fv-z.L))

	if z.Method == MethodX || z.Method == MethodE {
		dist := math.Sqrt(linalg.SqDist(v, z.X0))
		gn0 := linalg.Norm2(z.GradF0)
		lin := z.F0
		for i := range v {
			lin += z.GradF0[i] * (v[i] - z.X0[i])
		}
		// q is the quadratic term of containsWithQuadratic at v — exact for
		// ADCD-X, and for ADCD-E the upper bound q̄ = ½‖H∓‖₂·dist², with
		// ‖H∓‖₂ = max|λⱼ| read off the zone's eigen-factor (all four
		// constraint margins shrink as q grows, so an overstated q is
		// conservative). qa/qb bound q's growth: moving the point by t gives
		// q(v') ≤ q + qa·t + ½·qb·t².
		var q, qa, qb float64
		if z.Method == MethodX {
			qb = z.Lam
		} else {
			qb = z.H.Norm2()
		}
		qa = qb * dist
		q = 0.5 * qb * dist * dist
		if z.Kind == ConvexDiff {
			// g(v') = f(v') + q(v') ≤ U and ȟ(v') = q(v') ≤ lin(v') − L.
			budget = math.Min(budget, solveRadius(gnorm+qa, k+qb, z.U-fv-q))
			budget = math.Min(budget, solveRadius(gn0+qa, qb, lin-z.L-q))
		} else {
			// −q(v') ≥ lin(v') − U and f(v') − q(v') ≥ L.
			budget = math.Min(budget, solveRadius(gn0+qa, qb, z.U-lin-q))
			budget = math.Min(budget, solveRadius(gnorm+qa, k+qb, fv-q-z.L))
		}
	}

	// The neighborhood box bounds movement in L∞, which L2 movement can only
	// under-shoot, so its margin caps the budget directly. When the
	// curvature bound is domain-only and no box confines the trajectory, the
	// domain box stands in — beyond it the Taylor bounds above are void.
	if len(z.BLo) > 0 {
		budget = math.Min(budget, boxMargin(v, z.BLo, z.BHi))
	} else if e.domainOnly {
		budget = math.Min(budget, boxMargin(v, n.F.DomainLo, n.F.DomainHi))
	}

	budget *= budgetSafety
	if !(budget >= 0) { // NaN (or a just-failing margin): force exact checks
		e.valid = false
		e.budget = 0
		return
	}
	e.valid = true
	e.radius, e.budget = budget, budget
}

// solveRadius returns the largest t ≥ 0 with a·t + ½·b·t² ≤ c — the movement
// radius at which a constraint with margin c, first-order speed a and
// curvature b could first fail. Non-positive margins give 0 (the constraint
// is already tight); a degenerate growth curve (a ≤ 0, b ≤ 0) gives +Inf.
func solveRadius(a, b, c float64) float64 {
	if !(c > 0) {
		return 0
	}
	if b <= 0 {
		if a <= 0 {
			return math.Inf(1)
		}
		return c / a
	}
	return (math.Sqrt(a*a+2*b*c) - a) / b
}

// boxMargin returns the L∞ distance from v to the boundary of [lo, hi]
// (+Inf when no box). Negative components clamp to 0: the point is outside,
// so no movement is provably safe.
func boxMargin(v, lo, hi []float64) float64 {
	if len(lo) == 0 {
		return math.Inf(1)
	}
	m := math.Inf(1)
	for i := range v {
		m = math.Min(m, v[i]-lo[i])
		m = math.Min(m, hi[i]-v[i])
	}
	if !(m > 0) {
		return 0
	}
	return m
}
