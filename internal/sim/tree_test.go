package sim

import (
	"math"
	"reflect"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/obs"
	"automon/internal/shard"
	"automon/internal/stream"
)

// treeFanouts is the topology axis of the differential suite: a binary tree
// (maximal depth), the default fan-out, and a fan-out wide enough that every
// tree collapses to two tiers.
var treeFanouts = []int{2, 8, 64}

// TestTreeDifferentialAcrossZoo replays every curvature-carrying bundled
// function through the flat coordinator and through routing-mode shard trees
// at fan-outs {2, 8, 64}, and demands the full Result be DeepEqual: message
// counts by type, payload bytes, error series, coordinator stats, estimate
// traces. The tree is a topology choice, not a protocol change. Each case
// also replays with Config.elide through the deepest tree, where the Result
// (including ElidedChecks) must match the elided flat run bit for bit.
func TestTreeDifferentialAcrossZoo(t *testing.T) {
	for _, tc := range elideCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			flatCfg := tc.cfg
			flatCfg.Trace = true
			flat, err := Run(flatCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, fanout := range treeFanouts {
				treeCfg := flatCfg
				treeCfg.Shards = tc.cfg.Data.Nodes
				treeCfg.TreeFanout = fanout
				tree, err := Run(treeCfg)
				if err != nil {
					t.Fatalf("fanout %d: %v", fanout, err)
				}
				if !reflect.DeepEqual(*flat, *tree) {
					t.Errorf("fanout %d: sharded outcome diverges from flat\nflat %+v\ntree %+v",
						fanout, *flat, *tree)
				}
				if flat.RefusedSyncs+tree.RefusedSyncs != 0 {
					t.Errorf("fanout %d: syncs refused by their node: flat %d, tree %d", fanout, flat.RefusedSyncs, tree.RefusedSyncs)
				}
			}

			elFlatCfg := flatCfg
			elFlatCfg.elide = true
			elFlat, err := Run(elFlatCfg)
			if err != nil {
				t.Fatal(err)
			}
			elTreeCfg := elFlatCfg
			elTreeCfg.Shards = tc.cfg.Data.Nodes
			elTreeCfg.TreeFanout = 2
			elTree, err := Run(elTreeCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*elFlat, *elTree) {
				t.Errorf("elided sharded run diverges from elided flat run:\nflat %+v\ntree %+v", *elFlat, *elTree)
			}
		})
	}
}

// adaptiveBurstStream drifts gently, then sustains a per-node divergence
// burst in rounds 100–160 that engages §3.6 doubling and, once the burst
// ends, the controller's shrink/retune path.
func adaptiveBurstStream(nodes, rounds int) *stream.Dataset {
	return stream.NewCustom("bursty-sine", nodes, rounds, 10, 1, func(r, i int) []float64 {
		v := 1.3 + 0.02*math.Sin(float64(r)/25+float64(i))
		if r >= 100 && r < 160 {
			v += (float64(i) - 1.5) * 0.8 * math.Sin(float64(r)/8)
		}
		return []float64{v}
	})
}

// TestTreeDifferentialAdaptiveR covers the drift-aware radius controller: the
// controller's doubling, shrink, and retune decisions depend only on protocol
// events, so a sharded run must move r through the same schedule as the flat
// run.
func TestTreeDifferentialAdaptiveR(t *testing.T) {
	cfg := Config{
		F:    funcs.Sine(),
		Data: adaptiveBurstStream(4, 300),
		Core: core.Config{Epsilon: 0.1, R: 0.02, RDoubleAfter: 4,
			AdaptiveR: true, Decomp: core.DecompOptions{Seed: 4}},
		Trace: true,
	}
	flat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Stats.RDoublings == 0 || flat.Stats.AdaptiveRetunes == 0 {
		t.Fatalf("burst never engaged the controller (doublings=%d retunes=%d) — the differential is vacuous",
			flat.Stats.RDoublings, flat.Stats.AdaptiveRetunes)
	}
	for _, fanout := range treeFanouts {
		treeCfg := cfg
		treeCfg.Shards = 4
		treeCfg.TreeFanout = fanout
		tree, err := Run(treeCfg)
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if !reflect.DeepEqual(*flat, *tree) {
			t.Errorf("fanout %d: adaptive-r sharded outcome diverges from flat\nflat %+v\ntree %+v",
				fanout, *flat, *tree)
		}
	}
}

// TestTreeDeepTopology checks bit-identity through a five-tier tree with
// multi-node leaves: 32 nodes over 16 shards at fan-out 2.
func TestTreeDeepTopology(t *testing.T) {
	cfg := Config{
		F:     funcs.SqNorm(3),
		Data:  stream.GaussianNoise(3, 32, 120, 0.3, 0.1, 9),
		Core:  core.Config{Epsilon: 0.2},
		Trace: true,
	}
	flat, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	treeCfg := cfg
	treeCfg.Shards = 16
	treeCfg.TreeFanout = 2
	tree, err := Run(treeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*flat, *tree) {
		t.Fatalf("deep tree outcome diverges from flat\nflat %+v\ntree %+v", *flat, *tree)
	}
}

// TestTreeAbsorbMode runs the ε-correct absorb mode over a convex ADCD-E
// case: leaves must resolve real violations inside their partitions, the
// paper's deterministic ε guarantee must still hold round for round, and on
// this stream the partition-local balancing must not cost extra wire traffic
// compared to the routed tree (locality is the point of the mode).
func TestTreeAbsorbMode(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		F:    funcs.SqNorm(5),
		Data: stream.GaussianNoise(5, 8, 300, 0.3, 0.1, 7),
		Core: core.Config{Epsilon: 0.05},
	}
	routed := cfg
	routed.Shards, routed.TreeFanout = 2, 2
	routedRes, err := Run(routed)
	if err != nil {
		t.Fatal(err)
	}
	absorb := routed
	absorb.ShardAbsorb = true
	absorb.Core.Metrics = reg
	absorbRes, err := Run(absorb)
	if err != nil {
		t.Fatal(err)
	}
	if absorbRes.MissedRounds != 0 {
		t.Errorf("absorb mode broke the ε guarantee: %d missed rounds, max err %v (ε=%v)",
			absorbRes.MissedRounds, absorbRes.MaxErr, cfg.Core.Epsilon)
	}
	snap := reg.Snapshot()
	if snap["automon_shard_absorbed_violations_total"] == 0 {
		t.Fatal("absorb mode never absorbed a violation at a leaf — the mode is vacuous on this stream")
	}
	if absorbRes.Messages > routedRes.Messages {
		t.Errorf("absorb mode cost extra wire traffic: routed %d msgs, absorb %d msgs",
			routedRes.Messages, absorbRes.Messages)
	}
	t.Logf("routed: fullsyncs=%d msgs=%d; absorb: fullsyncs=%d msgs=%d absorbed=%v escalated=%v",
		routedRes.Stats.FullSyncs, routedRes.Messages,
		absorbRes.Stats.FullSyncs, absorbRes.Messages,
		snap["automon_shard_absorbed_violations_total"],
		snap["automon_shard_escalated_violations_total"])
}

// killSubtree marks every node under shard id dead in one departure.
func killSubtree(tr *shard.Tree, id int) error {
	ids, err := tr.Subtree(id)
	if err != nil {
		return err
	}
	return tr.HandleDeparture(ids...)
}

// rejoinSubtree re-admits every node under shard id with its stale vector in
// one full sync.
func rejoinSubtree(tr *shard.Tree, id int) error {
	ids, err := tr.Subtree(id)
	if err != nil {
		return err
	}
	return tr.HandleRejoin(ids, nil)
}

// TestTreeChaosBitIdenticalSiblings is the S-tier chaos proof, in the shape
// of the multi-tenant isolation harness: a victim tenant and a storm tenant
// run concurrently, sharing a metrics registry. The storm
// kills an entire sub-tree (4 of its 8 nodes) mid-stream and rejoins it 60
// rounds later. The victim's full Result must be bit-identical to a solo run,
// and the storm's own pre-chaos prefix must be bit-identical to an
// undisturbed storm run — chaos in one sub-tree is invisible to everything
// outside it.
func TestTreeChaosBitIdenticalSiblings(t *testing.T) {
	const killRound, rejoinRound = 60, 120
	victimBase := Config{
		F:     funcs.InnerProduct(4),
		Data:  stream.InnerProductPhases(4, 5, 200, 1),
		Core:  core.Config{Epsilon: 0.3},
		Trace: true,
	}
	stormBase := Config{
		F:     funcs.SqNorm(3),
		Data:  stream.GaussianNoise(3, 8, 200, 0.3, 0.1, 7),
		Core:  core.Config{Epsilon: 0.2},
		Trace: true,
	}
	stormBase.Shards, stormBase.TreeFanout = 4, 2

	// Solo baselines, each with private infrastructure.
	soloVictim := victimBase
	soloVictim.Core.Metrics = obs.NewRegistry()
	wantVictim, err := Run(soloVictim)
	if err != nil {
		t.Fatal(err)
	}
	calmStorm := stormBase
	calmStorm.Core.Metrics = obs.NewRegistry()
	wantStorm, err := Run(calmStorm)
	if err != nil {
		t.Fatal(err)
	}

	// Paired run: shared registry, chaos in the storm tenant. The tenants'
	// protocol counters share it under distinct group labels.
	// Shard 5 is the right sub-tree (leaves 2 and 3, nodes 4–7).
	reg := obs.NewRegistry()
	var chaosErr error
	victim := victimBase
	victim.Core.Metrics, victim.Core.MetricsLabels = reg, `group="0"`
	storm := stormBase
	storm.Core.Metrics, storm.Core.MetricsLabels = reg, `group="1"`
	storm.shardChaos = func(round int, tr *shard.Tree) {
		switch round {
		case killRound:
			if err := killSubtree(tr, 5); err != nil && chaosErr == nil {
				chaosErr = err
			}
		case rejoinRound:
			if err := rejoinSubtree(tr, 5); err != nil && chaosErr == nil {
				chaosErr = err
			}
		}
	}
	results := runConcurrently(t, []Config{victim, storm})
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}

	if !reflect.DeepEqual(*wantVictim, *results[0]) {
		t.Errorf("victim tenant perturbed by the storm's sub-tree chaos:\nsolo   %+v\npaired %+v",
			*wantVictim, *results[0])
	}
	gotStorm := results[1]
	if !reflect.DeepEqual(wantStorm.EstTrace[:killRound], gotStorm.EstTrace[:killRound]) {
		t.Error("storm's pre-chaos estimate prefix diverges from the undisturbed run")
	}
	if gotStorm.Stats.NodeDeaths != 4 || gotStorm.Stats.Rejoins != 4 {
		t.Errorf("sub-tree kill/rejoin tallies wrong: deaths=%d rejoins=%d, want 4/4",
			gotStorm.Stats.NodeDeaths, gotStorm.Stats.Rejoins)
	}
	// Recovery: after the rejoin's healing full sync the ε guarantee is back.
	for r := rejoinRound + 1; r < len(gotStorm.ErrTrace); r++ {
		if gotStorm.ErrTrace[r] > stormBase.Core.Epsilon+1e-9 {
			t.Fatalf("round %d after rejoin: error %v exceeds ε=%v — tree never recovered",
				r, gotStorm.ErrTrace[r], stormBase.Core.Epsilon)
		}
	}
	snap := reg.Snapshot()
	if snap[`automon_coordinator_node_deaths_total{group="1"}`] != 4 ||
		snap[`automon_coordinator_rejoins_total{group="1"}`] != 4 {
		t.Errorf("sub-tree chaos counters not attributed to the storm tenant: %v %v",
			snap[`automon_coordinator_node_deaths_total{group="1"}`],
			snap[`automon_coordinator_rejoins_total{group="1"}`])
	}
}
