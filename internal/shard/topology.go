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
	// maxWeight is the largest live-node count this shard could truthfully
	// report: its subtree size. Partials claiming more are count lies.
	maxWeight() int
	nodeIDs() []int
	collect(fresh map[int]bool) *core.Partial
	distribute(tmpl *core.Sync, zone *core.SafeZone)
}

// leaf is one core.Partition — the last-known vectors, slack assignments and
// ADCD-E factor bookkeeping of the contiguous node range [Lo, Hi), addressed
// by global node ID and reading liveness from the root machine — plus its
// place in the tree. In ModeAbsorb it additionally runs its own protocol
// machine over a local-ID view of the same partition to absorb safe-zone
// violations without involving the parent.
type leaf struct {
	core.Partition
	t  *Tree
	id int

	absorb *core.Machine
}

// enableAbsorb attaches the leaf's own protocol machine — the same
// core.Machine that runs at the root — over the partition, for
// partition-local lazy-sync absorption. The leaf machine never performs a
// full sync and never computes zones (it adopts the root's), so it runs on
// the detached config: no radius control, no zone cache, and private
// counters, so the root's series are the only ones scraped.
func (lf *leaf) enableAbsorb(cfg core.Config) {
	local := lf.Local()
	lf.absorb = core.NewMachine(lf.t.F, lf.Hi-lf.Lo, cfg.Detached(), local)
	local.Bind(lf.absorb)
}

func (lf *leaf) maxWeight() int { return lf.Hi - lf.Lo }

func (lf *leaf) nodeIDs() []int {
	ids := make([]int, 0, lf.Hi-lf.Lo)
	for g := lf.Lo; g < lf.Hi; g++ {
		ids = append(ids, g)
	}
	return ids
}

// collect answers a parent's gather with the leaf's partial-aggregate frame:
// the partition's Collect folded into a fresh set of exact accumulators. Node
// liveness is protocol state and lives at the root machine; the refresh may
// flag losses re-entrantly through it (NodeComm contract), which the fold
// then observes.
func (lf *leaf) collect(fresh map[int]bool) *core.Partial {
	p := &core.Partial{
		ShardID: lf.id,
		NodeID:  -1,
		Epoch:   lf.t.epoch,
		Accs:    make([]linalg.Acc, lf.t.F.Dim()),
	}
	p.Weight = lf.Collect(fresh, p.Accs)
	lf.t.obs.partials.Inc()
	return p
}

// distribute applies a full sync to the partition — the same per-node
// construction the flat coordinator performs, so the wire traffic is
// byte-identical. In ModeAbsorb the leaf machine adopts the new zone so its
// next absorption checks the fresh constraints.
func (lf *leaf) distribute(tmpl *core.Sync, zone *core.SafeZone) {
	lf.Distribute(tmpl, zone)
	if lf.absorb != nil {
		lf.absorb.AdoptZone(zone)
	}
}

// tryAbsorb attempts a partition-local lazy sync for a safe-zone violation
// from one of the leaf's nodes. The leaf machine's liveness view is
// refreshed from the root first: liveness is protocol state owned by the
// root, and the leaf must not balance against a node the root has excluded.
func (lf *leaf) tryAbsorb(v *core.Violation) bool {
	if v.NodeID < lf.Lo || v.NodeID >= lf.Hi {
		return false
	}
	for g := lf.Lo; g < lf.Hi; g++ {
		if lf.t.Live(g) {
			lf.absorb.MarkLive(g - lf.Lo)
		} else {
			lf.absorb.MarkDead(g - lf.Lo)
		}
	}
	lv := &core.Violation{NodeID: v.NodeID - lf.Lo, Kind: v.Kind, X: v.X}
	return lf.absorb.TryLazyAbsorb(lv)
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
		Accs:    make([]linalg.Acc, t.F.Dim()),
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
