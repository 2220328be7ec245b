package oracle

import (
	"fmt"

	"automon/internal/core"
	"automon/internal/linalg"
	"automon/internal/shard"
)

// ReplayTree runs the spec through a hierarchical sharded coordinator
// (internal/shard) instead of a flat one: the same drift schedule, the same
// centralized oracle, but every gather and distribution flows through a tree
// of sub-coordinators shaped by opt, over the in-process fabric (the TCP
// replay already covers the transport). The report's TreeDepth records the
// shape actually built (shard counts clamp to N). Guarantee violations land
// in Report.Bad exactly as in Replay.
func ReplayTree(sp Spec, opt shard.Options) (*Report, error) {
	cfg, rep, err := sp.begin()
	if err != nil {
		return nil, err
	}
	vecs := make([][]float64, sp.N)
	for i := range vecs {
		vecs[i] = linalg.Clone(sp.Gen(0, i))
	}
	g := core.NewGroup(sp.F, vecs)
	tree, err := shard.NewTree(sp.F, sp.N, cfg, g, opt)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: tree: %w", sp.Name, err)
	}
	if err := g.Start(tree); err != nil {
		return nil, fmt.Errorf("oracle: %s: init: %w", sp.Name, err)
	}
	rep.TreeDepth = tree.Depth()

	for r := 1; r <= sp.Rounds; r++ {
		for i := range vecs {
			copy(vecs[i], sp.Gen(r, i))
			if err := g.Step(i, vecs[i]); err != nil {
				return nil, fmt.Errorf("oracle: %s: round %d node %d: %w", sp.Name, r, i, err)
			}
		}
		rep.compare(sp.F, r, tree.Estimate(), vecs)
	}
	rep.Stats = tree.Stats()
	rep.RefusedSyncs = g.RefusedSyncs
	return rep, nil
}
