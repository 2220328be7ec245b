package shard

import "automon/internal/core"

// leaf is one core.Partition — the last-known vectors, slack assignments and
// ADCD-E factor bookkeeping of the contiguous node range [Lo, Hi), addressed
// by global node ID and reading liveness from the root machine. In
// ModeAbsorb it additionally runs its own protocol machine over a local-ID
// view of the same partition to absorb safe-zone violations without
// involving the root.
type leaf struct {
	core.Partition
	t *Tree

	absorb *core.Machine
}

// enableAbsorb attaches the leaf's own protocol machine — the same
// core.Machine that runs at the root — over the partition, for
// partition-local lazy-sync absorption. The leaf machine never performs a
// full sync and never computes zones (it adopts the root's), so it runs on
// the detached config: no radius control and private counters, so the
// root's series are the only ones scraped.
func (lf *leaf) enableAbsorb(cfg core.Config) {
	local := lf.Local()
	lf.absorb = core.NewMachine(lf.t.F, lf.Hi-lf.Lo, cfg.Detached(), local)
	local.Bind(lf.absorb)
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
