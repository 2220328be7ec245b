package shard

import (
	"automon/internal/core"
	"automon/internal/linalg"
)

// treeNode is one shard in the sub-coordinator tree: a leaf owning a node
// partition or an interior branch owning its children's union. Collect
// builds the shard's partial-aggregate frame bottom-up; distribute fans a
// full sync top-down. Both visit nodes in ascending global order, so the
// fabric sees exactly the message sequence a flat coordinator produces.
type treeNode interface {
	shardID() int
	// maxWeight is the largest live-node count this shard could truthfully
	// report: its subtree size. Partials claiming more are count lies.
	maxWeight() int
	nodeIDs() []int
	collect(fresh map[int]bool) *core.Partial
	distribute(tmpl *core.Sync, zone *core.SafeZone)
}

// leaf owns the contiguous node partition [lo, hi): last-known vectors,
// slack assignments and ADCD-E matrix bookkeeping for those nodes, indexed
// locally (global id g ↔ local index g-lo). In ModeAbsorb it additionally
// runs its own protocol machine over the partition to absorb safe-zone
// violations without involving the parent.
type leaf struct {
	t      *Tree
	id     int
	lo, hi int

	lastX      [][]float64
	slacks     [][]float64
	matrixSent []bool

	absorb *core.Machine
}

func newLeaf(t *Tree, id, lo, hi, dim int) *leaf {
	k := hi - lo
	lf := &leaf{
		t:          t,
		id:         id,
		lo:         lo,
		hi:         hi,
		lastX:      make([][]float64, k),
		slacks:     make([][]float64, k),
		matrixSent: make([]bool, k),
	}
	for i := 0; i < k; i++ {
		lf.lastX[i] = make([]float64, dim)
		lf.slacks[i] = make([]float64, dim)
	}
	return lf
}

// enableAbsorb attaches the leaf's own protocol machine — the same
// core.Machine that runs at the root — over the partition, for
// partition-local lazy-sync absorption. The leaf machine never performs a
// full sync and never computes zones (it adopts the root's), so adaptive
// radius control and zone caching are stripped from its config; its private
// counters stay unregistered so the root's series are the only ones scraped.
func (lf *leaf) enableAbsorb(cfg core.Config) {
	cfg.Metrics = nil
	cfg.Tracer = nil
	cfg.MetricsLabels = ""
	cfg.AdaptiveR = false
	cfg.SharedZoneCache = nil
	cfg.ZoneCacheSize = 0
	cfg.ZoneCacheScope = ""
	lf.absorb = core.NewMachine(lf.t.f, lf.hi-lf.lo, cfg, &leafLocalOwner{lf: lf})
}

func (lf *leaf) shardID() int   { return lf.id }
func (lf *leaf) maxWeight() int { return lf.hi - lf.lo }

func (lf *leaf) nodeIDs() []int {
	ids := make([]int, 0, lf.hi-lf.lo)
	for g := lf.lo; g < lf.hi; g++ {
		ids = append(ids, g)
	}
	return ids
}

// collect answers a parent's gather with the leaf's partial-aggregate frame:
// refresh every live partition node not already fresh in this resolution,
// then fold the live vectors into exact per-dimension accumulators. Node
// liveness is protocol state and lives at the root machine; the refresh may
// flag losses re-entrantly through it (NodeComm contract), which the fold
// loop then observes.
func (lf *leaf) collect(fresh map[int]bool) *core.Partial {
	t := lf.t
	p := &core.Partial{
		ShardID: lf.id,
		NodeID:  -1,
		Epoch:   t.epoch,
		Accs:    make([]linalg.Acc, t.f.Dim()),
	}
	for g := lf.lo; g < lf.hi; g++ {
		if fresh[g] || !t.root.Live(g) {
			continue
		}
		if x := t.comm.RequestData(g); x != nil {
			copy(lf.lastX[g-lf.lo], x)
		}
	}
	for g := lf.lo; g < lf.hi; g++ {
		if !t.root.Live(g) {
			continue
		}
		linalg.AddVec(p.Accs, lf.lastX[g-lf.lo])
		p.Weight++
	}
	t.obs.partials.Inc()
	return p
}

// distribute applies a full sync to the partition: assign slack
// sᵢ = x0 − xᵢ (zeroed for dead nodes and under DisableSlack) and send each
// live node its Sync built from the root's template — the same per-node
// construction the flat coordinator performs, so the wire traffic is
// byte-identical. In ModeAbsorb the leaf machine adopts the new zone so its
// next absorption checks the fresh constraints.
func (lf *leaf) distribute(tmpl *core.Sync, zone *core.SafeZone) {
	t := lf.t
	for g := lf.lo; g < lf.hi; g++ {
		lid := g - lf.lo
		if !t.root.Live(g) {
			for j := range lf.slacks[lid] {
				lf.slacks[lid][j] = 0
			}
			continue
		}
		if t.root.Cfg.DisableSlack {
			for j := range lf.slacks[lid] {
				lf.slacks[lid][j] = 0
			}
		} else {
			linalg.Sub(lf.slacks[lid], tmpl.X0, lf.lastX[lid])
		}
		withFactor := tmpl.Method == core.MethodE && !lf.matrixSent[lid]
		lf.matrixSent[lid] = true
		t.comm.SendSync(g, tmpl.ForNode(g, lf.slacks[lid], zone, withFactor))
	}
	if lf.absorb != nil {
		lf.absorb.AdoptZone(zone)
	}
}

// tryAbsorb attempts a partition-local lazy sync for a safe-zone violation
// from one of the leaf's nodes. The leaf machine's liveness view is
// refreshed from the root first: liveness is protocol state owned by the
// root, and the leaf must not balance against a node the root has excluded.
func (lf *leaf) tryAbsorb(v *core.Violation) bool {
	if v.NodeID < lf.lo || v.NodeID >= lf.hi {
		return false
	}
	for g := lf.lo; g < lf.hi; g++ {
		lid := g - lf.lo
		if lf.t.root.Live(g) {
			lf.absorb.MarkLive(lid)
		} else {
			lf.absorb.MarkDead(lid)
		}
	}
	lv := &core.Violation{NodeID: v.NodeID - lf.lo, Kind: v.Kind, X: v.X}
	return lf.absorb.TryLazyAbsorb(lv)
}

// leafLocalOwner is the absorb machine's data plane: the leaf's own arrays,
// addressed by local index, with fabric traffic translated to global node
// IDs. Store/Refresh/AddSlacked/Rebalance are what TryLazyAbsorb exercises;
// Collect/Distribute/Snapshot complete the Ownership contract over the
// partition (the leaf machine performs no full syncs in absorb mode, but the
// implementations are real, not stubs).
type leafLocalOwner struct{ lf *leaf }

func (o *leafLocalOwner) Store(lid int, x []float64) { copy(o.lf.lastX[lid], x) }

func (o *leafLocalOwner) Refresh(lid int) bool {
	x := o.lf.t.comm.RequestData(o.lf.lo + lid)
	if x == nil {
		return false
	}
	copy(o.lf.lastX[lid], x)
	return true
}

func (o *leafLocalOwner) AddSlacked(sum []float64, lid int) {
	for j := range sum {
		sum[j] += o.lf.lastX[lid][j] + o.lf.slacks[lid][j]
	}
}

func (o *leafLocalOwner) Rebalance(set []int, mean []float64) {
	for _, lid := range set {
		linalg.Sub(o.lf.slacks[lid], mean, o.lf.lastX[lid])
		g := o.lf.lo + lid
		o.lf.t.comm.SendSlack(g, &core.Slack{NodeID: g, Slack: linalg.Clone(o.lf.slacks[lid])})
	}
}

func (o *leafLocalOwner) Collect(fresh map[int]bool, accs []linalg.Acc) int {
	m := o.lf.absorb
	for lid := 0; lid < o.lf.hi-o.lf.lo; lid++ {
		if fresh[lid] || !m.Live(lid) {
			continue
		}
		o.Refresh(lid)
	}
	weight := 0
	for lid := 0; lid < o.lf.hi-o.lf.lo; lid++ {
		if !m.Live(lid) {
			continue
		}
		linalg.AddVec(accs, o.lf.lastX[lid])
		weight++
	}
	return weight
}

func (o *leafLocalOwner) Distribute(tmpl *core.Sync, zone *core.SafeZone) {
	// The absorb machine adopts zones from the root instead of distributing
	// its own; reaching here would mean it ran a full sync, which ModeAbsorb
	// never asks of it. Deliver to the partition anyway so the contract holds.
	lf := o.lf
	for lid := 0; lid < lf.hi-lf.lo; lid++ {
		if !lf.absorb.Live(lid) {
			continue
		}
		g := lf.lo + lid
		msg := &core.Sync{
			NodeID: g,
			Method: tmpl.Method,
			Kind:   tmpl.Kind,
			X0:     linalg.Clone(tmpl.X0),
			F0:     tmpl.F0,
			GradF0: linalg.Clone(tmpl.GradF0),
			L:      tmpl.L,
			U:      tmpl.U,
			Lam:    tmpl.Lam,
			R:      tmpl.R,
			Slack:  linalg.Clone(lf.slacks[lid]),
		}
		lf.t.comm.SendSync(g, msg)
	}
}

func (o *leafLocalOwner) Forget(lid int) { o.lf.matrixSent[lid] = false }

func (o *leafLocalOwner) Snapshot() [][]float64 {
	round := make([][]float64, len(o.lf.lastX))
	for i := range o.lf.lastX {
		round[i] = append([]float64(nil), o.lf.lastX[i]...)
	}
	return round
}

// branch is an interior shard: it owns no nodes directly, only the union of
// its children. Its collect merges the children's partial frames — each
// validated against the current epoch and the child's maximum plausible
// weight before it may touch the aggregate — and its distribute recurses in
// child order, preserving the global ascending node order.
type branch struct {
	t        *Tree
	id       int
	children []treeNode
}

func (b *branch) shardID() int { return b.id }

func (b *branch) maxWeight() int {
	w := 0
	for _, c := range b.children {
		w += c.maxWeight()
	}
	return w
}

func (b *branch) nodeIDs() []int {
	var ids []int
	for _, c := range b.children {
		ids = append(ids, c.nodeIDs()...)
	}
	return ids
}

func (b *branch) collect(fresh map[int]bool) *core.Partial {
	t := b.t
	p := &core.Partial{
		ShardID: b.id,
		NodeID:  -1,
		Epoch:   t.epoch,
		Accs:    make([]linalg.Acc, t.f.Dim()),
	}
	for _, c := range b.children {
		cp := c.collect(fresh)
		if !t.acceptPartial(cp, c.maxWeight()) {
			continue
		}
		linalg.MergeVec(p.Accs, cp.Accs)
		p.Weight += cp.Weight
	}
	t.obs.partials.Inc()
	return p
}

func (b *branch) distribute(tmpl *core.Sync, zone *core.SafeZone) {
	for _, c := range b.children {
		c.distribute(tmpl, zone)
	}
}
