// Package shard implements hierarchical sharded coordination (ROADMAP item
// 1): one core.Machine — the same protocol state machine that drives the
// flat core.Coordinator — runs at the root of a tree of sub-coordinators,
// while data ownership (node vectors, slack assignments, ADCD-E matrix
// bookkeeping) is partitioned across the tree's leaves. Each leaf owns a
// contiguous node partition, maintains its exact partial aggregate
// (linalg.Acc) and its local violation set, and forwards only partial
// aggregates, unresolved violations, and sync decisions across tree edges —
// the aggregation shape of the coordinator model (arXiv:2403.20307) applied
// to AutoMon's §3 protocol.
//
// Because the per-dimension partial sums are exact, merging them up the tree
// is associative: a tree of any depth and fan-out reproduces the flat
// coordinator's reference point x̄ bit-for-bit. In ModeRoute every protocol
// decision is made by the root machine, and an entire run — estimates,
// violations, syncs, message counts — is bitwise identical to a flat run
// over the same stream (asserted by the sim differential suite). ModeAbsorb
// additionally runs the same Machine at every leaf to absorb safe-zone
// violations inside the partition via local lazy-sync balancing; absorption
// preserves the partition-local slack sum, so Σᵢ sᵢ = 0 still holds globally
// and the run stays ε-correct (asserted by the oracle tree replay), though
// its balancing choices — and therefore its exact message trace — differ
// from the flat LRU's.
package shard

import (
	"fmt"

	"automon/internal/core"
	"automon/internal/linalg"
)

// Mode selects how much protocol authority the tree's lower tiers hold.
type Mode uint8

const (
	// ModeRoute routes every violation to the root machine; the tree is
	// purely a distributed data plane. Bit-identical to a flat coordinator.
	ModeRoute Mode = iota
	// ModeAbsorb runs the same protocol machine at each leaf to absorb
	// safe-zone violations with partition-local lazy syncs, escalating only
	// what it cannot resolve. ε-correct; not bitwise comparable to flat.
	ModeAbsorb
)

func (m Mode) String() string {
	if m == ModeAbsorb {
		return "absorb"
	}
	return "route"
}

// DefaultFanout is the interior fan-out used when Options.Fanout is zero.
const DefaultFanout = 8

// Options shapes the sub-coordinator tree.
type Options struct {
	// Shards is the number of leaf shards; values below 1 (or above the node
	// count) are clamped.
	Shards int
	// Fanout is the maximum children per interior tier; 0 means
	// DefaultFanout. With Shards ≤ Fanout the tree has a single shard tier.
	Fanout int
	// Mode selects routing-only or leaf-absorbing shards.
	Mode Mode
}

// Tree is a hierarchical coordinator: the root protocol machine, embedded the
// way core.Coordinator embeds it, over the shard tree that owns its data
// plane. Every Machine method (Init, Resync, Estimate, Stats, the liveness
// getters and the two membership transitions) is the root's own; the tree
// adds only violation routing in ModeAbsorb and whole-sub-tree membership.
//
// A Tree is single-threaded, like the Machine: whatever enters it from
// several goroutines serializes the calls itself (transport.SubtreeListener
// does).
type Tree struct {
	*core.Machine
	mode Mode

	topo   treeNode
	leaves []*leaf // by shard ID (leaf shard IDs are 0..len(leaves)-1)
	leafOf []*leaf // by global node ID
	byID   map[int]treeNode

	depth  int
	fanout int
	epoch  uint64

	obs treeObs
}

// NewTree builds the shard tree and its root machine for n nodes over f.
// The comm fabric is shared by every leaf: node-facing traffic (data pulls,
// syncs, slack) is identical to a flat coordinator's, only its ownership is
// partitioned.
func NewTree(f *core.Function, n int, cfg core.Config, comm core.NodeComm, opt Options) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: tree needs at least one node, got %d", n)
	}
	shards := opt.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	fanout := opt.Fanout
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		return nil, fmt.Errorf("shard: tree fan-out must be at least 2, got %d", fanout)
	}
	t := &Tree{
		mode:   opt.Mode,
		fanout: fanout,
		byID:   make(map[int]treeNode),
		obs:    newTreeObs(cfg.Metrics, cfg.MetricsLabels),
	}
	rootCfg := cfg
	if t.mode == ModeAbsorb {
		// Leaves own the lazy path; everything that reaches the root is
		// already an escalation and resolves with a full sync.
		rootCfg.DisableLazySync = true
	}
	t.Machine = core.NewMachine(f, n, rootCfg, &treeOwner{t: t})

	// Leaves own contiguous, balanced partitions in global node order, so a
	// depth-first collect visits nodes exactly as a flat gather would.
	absorbing := opt.Mode == ModeAbsorb && !cfg.DisableLazySync && !cfg.DisableSlack
	t.leaves = make([]*leaf, shards)
	t.leafOf = make([]*leaf, n)
	for s := 0; s < shards; s++ {
		lo := s * n / shards
		hi := (s + 1) * n / shards
		lf := &leaf{Partition: core.NewPartition(f.Dim(), lo, hi, comm), t: t, id: s}
		lf.Bind(t.Machine)
		if absorbing {
			lf.enableAbsorb(cfg)
		}
		t.leaves[s] = lf
		t.byID[s] = lf
		for g := lo; g < hi; g++ {
			t.leafOf[g] = lf
		}
	}

	// Stack interior tiers bottom-up until one shard remains under the root
	// machine; shard IDs continue past the leaves.
	level := make([]treeNode, shards)
	for i, lf := range t.leaves {
		level[i] = lf
	}
	nextID := shards
	t.depth = 1
	for len(level) > 1 {
		var up []treeNode
		for lo := 0; lo < len(level); lo += fanout {
			hi := lo + fanout
			if hi > len(level) {
				hi = len(level)
			}
			b := &branch{t: t, id: nextID, children: append([]treeNode(nil), level[lo:hi]...)}
			t.byID[nextID] = b
			nextID++
			up = append(up, b)
		}
		level = up
		t.depth++
	}
	t.topo = level[0]

	t.obs.leaves.Set(float64(shards))
	t.obs.depth.Set(float64(t.depth))
	t.obs.fanout.Set(float64(fanout))
	return t, nil
}

// Depth returns the number of tiers from root shard to leaves (1 = a single
// shard tier).
func (t *Tree) Depth() int { return t.depth }

// Leaves returns the number of leaf shards.
func (t *Tree) Leaves() int { return len(t.leaves) }

// Epoch returns the current full-sync generation; partial-aggregate frames
// from older generations are rejected.
func (t *Tree) Epoch() uint64 { return t.epoch }

// HandleViolation reacts to a node-reported violation. In ModeAbsorb the
// owning leaf first attempts to absorb a safe-zone violation with a
// partition-local lazy sync; only unresolved violations escalate to the
// root.
func (t *Tree) HandleViolation(v *core.Violation) error {
	if t.mode == ModeAbsorb && v != nil && v.NodeID >= 0 && v.NodeID < t.N {
		lf := t.leafOf[v.NodeID]
		if lf.absorb != nil && t.Live(v.NodeID) && lf.tryAbsorb(v) {
			t.obs.absorbed.Inc()
			return nil
		}
		t.obs.escalated.Inc()
	}
	return t.Machine.HandleViolation(v)
}

// Subtree returns the global node IDs owned by shard shardID's subtree (a
// leaf's partition, or the union of an interior shard's leaves), ascending.
func (t *Tree) Subtree(shardID int) ([]int, error) {
	nd, ok := t.byID[shardID]
	if !ok {
		return nil, fmt.Errorf("shard: unknown shard %d", shardID)
	}
	return nd.nodeIDs(), nil
}

// KillSubtree marks every node under shard shardID dead and re-synchronizes
// the survivors in one full sync. Returns core.ErrNoLiveNodes when the
// subtree was the entire population.
func (t *Tree) KillSubtree(shardID int) error {
	ids, err := t.Subtree(shardID)
	if err != nil {
		return err
	}
	t.obs.subtreeDeparts.Inc()
	return t.HandleDeparture(ids...)
}

// RejoinSubtree re-admits every node under shard shardID with fresh vectors
// (xs indexed in the subtree's ascending node order; nil entries keep the
// stale vector) and runs one full sync over the healed population.
func (t *Tree) RejoinSubtree(shardID int, xs [][]float64) error {
	ids, err := t.Subtree(shardID)
	if err != nil {
		return err
	}
	if xs != nil && len(xs) != len(ids) {
		return fmt.Errorf("shard: subtree %d rejoin carries %d vectors for %d nodes", shardID, len(xs), len(ids))
	}
	t.obs.subtreeRejoins.Inc()
	return t.HandleRejoin(ids, xs)
}

// HandleSubtreeRejoinMsg applies a decoded wire-form SubtreeRejoin: the
// frame's node set must exactly match the shard's subtree (a partial or
// inflated population is a forged frame and is rejected without touching
// protocol state).
func (t *Tree) HandleSubtreeRejoinMsg(m *core.SubtreeRejoin) error {
	ids, err := t.Subtree(m.ShardID)
	if err != nil {
		t.obs.rejectedCorrupt.Inc()
		return err
	}
	if len(m.IDs) != len(ids) {
		t.obs.rejectedCorrupt.Inc()
		return fmt.Errorf("shard: subtree %d rejoin frame names %d nodes, owns %d", m.ShardID, len(m.IDs), len(ids))
	}
	for i := range ids {
		if m.IDs[i] != ids[i] {
			t.obs.rejectedCorrupt.Inc()
			return fmt.Errorf("shard: subtree %d rejoin frame names node %d outside the partition", m.ShardID, m.IDs[i])
		}
		if len(m.Xs[i]) != t.F.Dim() {
			t.obs.rejectedCorrupt.Inc()
			return fmt.Errorf("shard: subtree %d rejoin vector %d has dimension %d, want %d", m.ShardID, i, len(m.Xs[i]), t.F.Dim())
		}
	}
	t.obs.subtreeRejoins.Inc()
	return t.HandleRejoin(ids, m.Xs)
}

// AcceptPartial validates a partial-aggregate frame against the current
// epoch and the sender's maximum plausible weight (its subtree size).
// Rejected frames are counted by reason and contribute nothing — a count lie
// or a stale epoch cannot skew the reference point. The transport tier calls
// this for frames arriving off the wire; the in-process tiers run the same
// check on every merge.
func (t *Tree) AcceptPartial(p *core.Partial) bool {
	maxW := t.N
	if p != nil {
		if nd, ok := t.byID[p.ShardID]; ok {
			maxW = nd.maxWeight()
		}
	}
	return t.acceptPartial(p, maxW)
}

func (t *Tree) acceptPartial(p *core.Partial, maxWeight int) bool {
	switch {
	case p == nil || len(p.Accs) != t.F.Dim():
		t.obs.rejectedCorrupt.Inc()
		return false
	case p.Epoch != t.epoch:
		t.obs.rejectedStale.Inc()
		return false
	case p.Weight < 0 || p.Weight > maxWeight:
		t.obs.rejectedWeight.Inc()
		return false
	}
	return true
}

// treeOwner adapts the shard tree to core.Ownership: the root machine's data
// plane is a router over the leaves' partitions. Single-node operations go
// straight to the owning leaf; collective operations (Collect, Distribute)
// recurse the topology so partial aggregates are built and merged tier by
// tier.
type treeOwner struct{ t *Tree }

func (o *treeOwner) Store(id int, x []float64) { o.t.leafOf[id].Store(id, x) }

func (o *treeOwner) Refresh(id int) bool { return o.t.leafOf[id].Refresh(id) }

func (o *treeOwner) AddSlacked(sum []float64, id int) { o.t.leafOf[id].AddSlacked(sum, id) }

func (o *treeOwner) Rebalance(set []int, mean []float64) {
	for i, g := range set {
		o.t.leafOf[g].Rebalance(set[i:i+1], mean)
	}
}

func (o *treeOwner) Collect(fresh map[int]bool, accs []linalg.Acc) int {
	p := o.t.topo.collect(fresh)
	if !o.t.acceptPartial(p, o.t.N) {
		return 0
	}
	linalg.MergeVec(accs, p.Accs)
	return p.Weight
}

func (o *treeOwner) Distribute(tmpl *core.Sync, zone *core.SafeZone) {
	o.t.epoch++
	o.t.topo.distribute(tmpl, zone)
}

func (o *treeOwner) Forget(id int) { o.t.leafOf[id].Forget(id) }

func (o *treeOwner) Snapshot() [][]float64 {
	round := make([][]float64, 0, o.t.N)
	for _, lf := range o.t.leaves {
		round = append(round, lf.Snapshot()...)
	}
	return round
}
