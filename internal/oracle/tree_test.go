package oracle_test

import (
	"testing"

	"automon/internal/oracle"
	"automon/internal/shard"
)

// treeShapes are the topologies every spec replays through: a wide shape
// that flattens to two tiers and a binary shape that reaches three tiers
// once the cluster has at least three nodes (shard counts clamp to N).
var treeShapes = []struct {
	name  string
	opt   shard.Options
	depth func(n int) int
}{
	{"wide/2-level", shard.Options{Shards: 2, Fanout: 8}, func(n int) int { return 2 }},
	{"binary/3-level", shard.Options{Shards: 4, Fanout: 2}, func(n int) int {
		if n == 2 {
			return 2
		}
		return 3
	}},
}

// TestTreeReplayAcrossZoo checks every bundled function against the exact
// centralized f(x̄) through 2- and 3-level shard trees, in both routing and
// absorbing modes: the hierarchical gather must preserve the paper's ε
// guarantee at every quiesced round, for every decomposition method the
// function zoo exercises.
func TestTreeReplayAcrossZoo(t *testing.T) {
	for _, sp := range specs(t) {
		sp := sp
		for _, shape := range treeShapes {
			for _, mode := range []shard.Mode{shard.ModeRoute, shard.ModeAbsorb} {
				shape, mode := shape, mode
				t.Run(sp.Name+"/"+shape.name+"/"+mode.String(), func(t *testing.T) {
					t.Parallel()
					opt := shape.opt
					opt.Mode = mode
					rep, err := oracle.ReplayTree(sp, opt)
					if err != nil {
						t.Fatal(err)
					}
					if want := shape.depth(sp.N); rep.TreeDepth != want {
						t.Fatalf("tree depth %d, want %d", rep.TreeDepth, want)
					}
					if len(rep.Bad) > 0 {
						t.Errorf("%d/%d rounds exceeded the bound %v (max err %v): rounds %v",
							len(rep.Bad), len(rep.Rounds), rep.Bound, rep.MaxErr, rep.Bad)
						for _, r := range rep.Rounds {
							if r.Err > rep.Bound {
								t.Logf("round %d: estimate %v truth %v err %v", r.Round, r.Estimate, r.Truth, r.Err)
							}
						}
					}
					if rep.Stats.FullSyncs == 0 {
						t.Error("replay finished without a single full sync — the tree never initialized")
					}
					if rep.RefusedSyncs != 0 {
						t.Errorf("%d syncs refused by their node", rep.RefusedSyncs)
					}
				})
			}
		}
	}
}

// TestTreeReplayValidatesSpec mirrors the flat replay's spec validation.
func TestTreeReplayValidatesSpec(t *testing.T) {
	if _, err := oracle.ReplayTree(oracle.Spec{Name: "empty"}, shard.Options{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}
