package shard

import "automon/internal/obs"

// treeObs bundles the shard tier's observability instruments: tree shape
// gauges, partial-aggregate flow, frame rejections by reason, and the
// absorb/escalate split. They live next to — not inside — the root machine's
// coordinator series: the machine does not know it is sharded.
type treeObs struct {
	leaves *obs.Gauge
	depth  *obs.Gauge
	fanout *obs.Gauge

	partials        *obs.Counter
	rejectedCorrupt *obs.Counter
	rejectedStale   *obs.Counter
	rejectedWeight  *obs.Counter

	absorbed  *obs.Counter
	escalated *obs.Counter

	subtreeDeparts *obs.Counter
	subtreeRejoins *obs.Counter
}

// newTreeObs creates the instruments, registered in reg when non-nil; a nil
// registry keeps them standalone, same as the coordinator's.
func newTreeObs(reg *obs.Registry, labels string) treeObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	name := func(n string) string { return obs.LabeledName(n, labels) }
	const rejectHelp = "shard partial-aggregate frames rejected before merging, by reason"
	return treeObs{
		leaves: reg.Gauge(name("automon_shard_leaves"), "leaf shards in the coordinator tree"),
		depth:  reg.Gauge(name("automon_shard_tree_depth"), "tiers from the root shard to the leaves"),
		fanout: reg.Gauge(name("automon_shard_tree_fanout"), "maximum children per interior shard"),

		partials:        reg.Counter(name("automon_shard_partials_total"), "partial-aggregate frames produced across all tiers"),
		rejectedCorrupt: reg.Counter(name(`automon_shard_partials_rejected_total{reason="corrupt"}`), rejectHelp),
		rejectedStale:   reg.Counter(name(`automon_shard_partials_rejected_total{reason="stale_epoch"}`), rejectHelp),
		rejectedWeight:  reg.Counter(name(`automon_shard_partials_rejected_total{reason="weight"}`), rejectHelp),

		absorbed:  reg.Counter(name("automon_shard_absorbed_violations_total"), "safe-zone violations absorbed by a leaf's partition-local lazy sync"),
		escalated: reg.Counter(name("automon_shard_escalated_violations_total"), "violations a leaf could not absorb and escalated to the root"),

		subtreeDeparts: reg.Counter(name("automon_shard_subtree_departures_total"), "whole sub-trees marked dead"),
		subtreeRejoins: reg.Counter(name("automon_shard_subtree_rejoins_total"), "whole sub-trees re-admitted after a partition healed"),
	}
}
