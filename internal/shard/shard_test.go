package shard_test

import (
	"errors"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/obs"
	"automon/internal/shard"
	"automon/internal/testenv"
)

func newCluster(t *testing.T, f *core.Function, n int, gen func(i int) []float64) ([]*core.Node, *core.Fabric) {
	t.Helper()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = core.NewNode(i, f)
		nodes[i].SetData(gen(i))
	}
	return nodes, &core.Fabric{Nodes: nodes}
}

func TestTreeShapeAndSubtrees(t *testing.T) {
	f := funcs.SqNorm(2)
	gen := func(i int) []float64 { return []float64{0.5, 0.5} }
	_, comm := newCluster(t, f, 12, gen)

	tr, err := shard.NewTree(f, 12, core.Config{Epsilon: 0.5}, comm, shard.Options{Shards: 6, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 6 {
		t.Fatalf("Leaves() = %d, want 6", tr.Leaves())
	}
	// 6 leaves → 3 branches → 2 branches → 1: four tiers.
	if tr.Depth() != 4 {
		t.Fatalf("Depth() = %d, want 4", tr.Depth())
	}
	ids, err := tr.Subtree(0)
	if err != nil || !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("Subtree(0) = %v, %v; want [0 1]", ids, err)
	}
	// The top shard is the last ID assigned and owns every node.
	topIDs := -1
	for sid := 0; ; sid++ {
		ids, err := tr.Subtree(sid)
		if err != nil {
			break
		}
		if len(ids) == 12 {
			topIDs = sid
		}
	}
	if topIDs < 6 {
		t.Fatalf("no interior shard owns the full population (last full shard %d)", topIDs)
	}
	if _, err := tr.Subtree(999); err == nil {
		t.Fatal("Subtree(999) of an unknown shard succeeded")
	}

	if _, err := shard.NewTree(f, 12, core.Config{}, comm, shard.Options{Shards: 4, Fanout: 1}); err == nil {
		t.Fatal("fan-out 1 accepted")
	}
	clamped, err := shard.NewTree(f, 5, core.Config{}, comm, shard.Options{Shards: 50})
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Leaves() != 5 {
		t.Fatalf("shard count not clamped to n: %d leaves for 5 nodes", clamped.Leaves())
	}
}

// monitorish is the surface the bit-identity harness drives.
type monitorish interface {
	Init() error
	HandleViolation(v *core.Violation) error
	Estimate() float64
	Stats() core.CoordStats
}

// drive replays a deterministic drift schedule through mon over its own node
// set and returns the per-round estimates.
func drive(t *testing.T, mon monitorish, nodes []*core.Node, rounds int, gen func(r, i int) []float64) []float64 {
	t.Helper()
	if err := mon.Init(); err != nil {
		t.Fatal(err)
	}
	var ests []float64
	for r := 1; r <= rounds; r++ {
		for i, nd := range nodes {
			if v := nd.UpdateData(gen(r, i)); v != nil {
				if err := mon.HandleViolation(v); err != nil {
					t.Fatalf("round %d node %d: %v", r, i, err)
				}
			}
		}
		ests = append(ests, mon.Estimate())
	}
	return ests
}

// TestTreeBitIdenticalToFlat drives the same drift schedule through a flat
// coordinator and through routing-mode trees of several shapes and requires
// bitwise-equal per-round estimates and identical protocol stats: the exact
// partial aggregates make tree shape invisible to the protocol.
func TestTreeBitIdenticalToFlat(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *core.Function
		dim  int
		cfg  core.Config
	}{
		{"sqnorm-adcd-e", funcs.SqNorm(2), 2, core.Config{Epsilon: 0.3}},
		{"sine-adcd-x", funcs.Sine(), 1, core.Config{Epsilon: 0.1, R: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, rounds = 6, 40
			gen := func(r, i int) []float64 {
				x := make([]float64, tc.dim)
				for j := range x {
					x[j] = 0.5 + 0.01*float64(r) + 0.03*math.Sin(float64(i+r+j))
				}
				return x
			}
			gen0 := func(i int) []float64 { return gen(0, i) }

			flatNodes, flatComm := newCluster(t, tc.f, n, gen0)
			flat := core.NewCoordinator(tc.f, n, tc.cfg, flatComm)
			want := drive(t, flat, flatNodes, rounds, gen)

			for _, opt := range []shard.Options{
				{Shards: 6, Fanout: 2},
				{Shards: 3, Fanout: 8},
				{Shards: 2, Fanout: 64},
			} {
				treeNodes, treeComm := newCluster(t, tc.f, n, gen0)
				tr, err := shard.NewTree(tc.f, n, tc.cfg, treeComm, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := drive(t, tr, treeNodes, rounds, gen)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("shards=%d fanout=%d (depth %d): estimates diverge from flat run\nflat %v\ntree %v",
						opt.Shards, opt.Fanout, tr.Depth(), want, got)
				}
				if fs, ts := flat.Stats(), tr.Stats(); fs != ts {
					t.Errorf("shards=%d fanout=%d: stats diverge\nflat %+v\ntree %+v", opt.Shards, opt.Fanout, fs, ts)
				}
			}
		})
	}
}

func TestAcceptPartialValidation(t *testing.T) {
	f := funcs.SqNorm(2)
	_, comm := newCluster(t, f, 8, func(i int) []float64 { return []float64{0.4, 0.4} })
	reg := obs.NewRegistry()
	tr, err := shard.NewTree(f, 8, core.Config{Epsilon: 0.5, Metrics: reg}, comm, shard.Options{Shards: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(); err != nil {
		t.Fatal(err)
	}

	good := func() *core.Partial {
		return &core.Partial{ShardID: 0, NodeID: -1, Epoch: tr.Epoch(), Weight: 2, Accs: make([]linalg.Acc, f.Dim())}
	}
	if !tr.AcceptPartial(good()) {
		t.Fatal("well-formed current-epoch partial rejected")
	}
	cases := []struct {
		name   string
		mut    func(p *core.Partial)
		reason string
	}{
		{"nil-accs", func(p *core.Partial) { p.Accs = nil }, "corrupt"},
		{"wrong-dims", func(p *core.Partial) { p.Accs = make([]linalg.Acc, 7) }, "corrupt"},
		{"stale-epoch", func(p *core.Partial) { p.Epoch-- }, "stale_epoch"},
		{"future-epoch", func(p *core.Partial) { p.Epoch += 3 }, "stale_epoch"},
		{"count-lie", func(p *core.Partial) { p.Weight = 3 }, "weight"}, // leaf 0 owns 2 nodes
		{"negative-weight", func(p *core.Partial) { p.Weight = -1 }, "weight"},
		{"unknown-shard", func(p *core.Partial) { p.ShardID, p.Weight = 999, 8 }, "corrupt"},
	}
	for _, tc := range cases {
		p := good()
		tc.mut(p)
		before := reg.Snapshot()[`automon_shard_partials_rejected_total{reason="`+tc.reason+`"}`]
		if tr.AcceptPartial(p) {
			t.Errorf("%s: hostile partial accepted", tc.name)
			continue
		}
		after := reg.Snapshot()[`automon_shard_partials_rejected_total{reason="`+tc.reason+`"}`]
		if after != before+1 {
			t.Errorf("%s: rejection not counted under reason=%q (%v -> %v)", tc.name, tc.reason, before, after)
		}
	}
}

// TestTreeResyncAllocatesLikeFlat requires a full sync through a 64-leaf,
// fan-out-8 tree to allocate exactly what the flat coordinator's does over
// the same 1024 nodes: the tree's gather folds its leaves into the root
// machine's own accumulators, so its tiers cost no per-sync objects.
func TestTreeResyncAllocatesLikeFlat(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const n, d = 1024, 8
	f := funcs.SqNorm(d)
	gen := func(i int) []float64 {
		x := make([]float64, d)
		for j := range x {
			x[j] = 0.1 * math.Sin(float64(i*d+j))
		}
		return x
	}
	resyncAllocs := func(mon interface {
		Init() error
		Resync() error
	}) float64 {
		if err := mon.Init(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := mon.Resync(); err != nil {
				t.Fatal(err)
			}
		})
	}
	cfg := core.Config{Epsilon: 0.5}
	// A collection empties the evaluators' sync.Pool, and the refill would
	// count against whichever run it lands in.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	_, flatComm := newCluster(t, f, n, gen)
	flat := resyncAllocs(core.NewCoordinator(f, n, cfg, flatComm))

	_, treeComm := newCluster(t, f, n, gen)
	tr, err := shard.NewTree(f, n, cfg, treeComm, shard.Options{Shards: 64, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	tree := resyncAllocs(tr)
	if tree != flat {
		t.Fatalf("a tree Resync allocates %.0f objects, the flat coordinator's %.0f", tree, flat)
	}
}

// killSubtree marks every node under shard id dead in one departure, which
// re-synchronizes the survivors in one full sync.
func killSubtree(tr *shard.Tree, id int) error {
	ids, err := tr.Subtree(id)
	if err != nil {
		return err
	}
	return tr.HandleDeparture(ids...)
}

// rejoinSubtree re-admits every node under shard id with xs (in the
// subtree's ascending node order; nil keeps the stale vectors) in one full
// sync.
func rejoinSubtree(tr *shard.Tree, id int, xs [][]float64) error {
	ids, err := tr.Subtree(id)
	if err != nil {
		return err
	}
	return tr.HandleRejoin(ids, xs)
}

func TestKillAndRejoinSubtree(t *testing.T) {
	f := funcs.SqNorm(2)
	gen := func(i int) []float64 { return []float64{0.3 + 0.05*float64(i), 0.4} }
	nodes, comm := newCluster(t, f, 8, gen)
	tr, err := shard.NewTree(f, 8, core.Config{Epsilon: 0.5}, comm, shard.Options{Shards: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(); err != nil {
		t.Fatal(err)
	}

	// Kill leaf shard 1 (nodes 2, 3): survivors re-sync over the live set.
	if err := killSubtree(tr, 1); err != nil {
		t.Fatal(err)
	}
	if !tr.Degraded() || tr.LiveCount() != 6 {
		t.Fatalf("after subtree kill: degraded=%v live=%d, want true/6", tr.Degraded(), tr.LiveCount())
	}
	if st := tr.Stats(); st.NodeDeaths != 2 {
		t.Fatalf("NodeDeaths = %d, want 2", st.NodeDeaths)
	}
	liveAvg := make([]float64, 2)
	for _, i := range []int{0, 1, 4, 5, 6, 7} {
		linalg.Add(liveAvg, liveAvg, nodes[i].LocalVector())
	}
	linalg.Scale(liveAvg, 1.0/6, liveAvg)
	if est, want := tr.Estimate(), f.Value(liveAvg); math.Abs(est-want) > 1e-12 {
		t.Fatalf("degraded estimate %v does not track the live-node average %v", est, want)
	}

	// Heal: the sub-tree rejoins with fresh vectors and one full sync.
	xs := [][]float64{{0.9, 0.1}, {0.8, 0.2}}
	if err := rejoinSubtree(tr, 1, xs); err != nil {
		t.Fatal(err)
	}
	if tr.Degraded() || tr.LiveCount() != 8 {
		t.Fatalf("after subtree rejoin: degraded=%v live=%d, want false/8", tr.Degraded(), tr.LiveCount())
	}
	if st := tr.Stats(); st.Rejoins != 2 {
		t.Fatalf("Rejoins = %d, want 2", st.Rejoins)
	}
	full := make([]float64, 2)
	for i := 0; i < 8; i++ {
		x := nodes[i].LocalVector()
		if i == 2 || i == 3 {
			x = xs[i-2]
		}
		linalg.Add(full, full, x)
	}
	linalg.Scale(full, 1.0/8, full)
	if est, want := tr.Estimate(), f.Value(full); math.Abs(est-want) > 1e-12 {
		t.Fatalf("healed estimate %v does not track the full average %v", est, want)
	}

	// Vector-count mismatch is rejected before touching protocol state.
	if err := rejoinSubtree(tr, 1, [][]float64{{1, 1}}); err == nil {
		t.Fatal("rejoin with 1 vector for a 2-node subtree accepted")
	}
}

// TestKillEntireTree: killing the top shard leaves no live node; the error
// is the degraded-but-recoverable ErrNoLiveNodes, same as flat departures.
func TestKillEntireTree(t *testing.T) {
	f := funcs.SqNorm(2)
	_, comm := newCluster(t, f, 4, func(i int) []float64 { return []float64{0.5, 0.5} })
	tr, err := shard.NewTree(f, 4, core.Config{Epsilon: 0.5}, comm, shard.Options{Shards: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(); err != nil {
		t.Fatal(err)
	}
	top := 2 // shard IDs: leaves 0,1 then the single branch
	if err := killSubtree(tr, top); !errors.Is(err, core.ErrNoLiveNodes) {
		t.Fatalf("killing the whole tree: err = %v, want ErrNoLiveNodes", err)
	}
	if err := rejoinSubtree(tr, top, nil); err != nil {
		t.Fatalf("whole-tree rejoin: %v", err)
	}
	if tr.Degraded() {
		t.Fatal("still degraded after whole-tree rejoin")
	}
}

func TestSubtreeRejoinMsgValidation(t *testing.T) {
	f := funcs.SqNorm(2)
	_, comm := newCluster(t, f, 8, func(i int) []float64 { return []float64{0.5, 0.5} })
	tr, err := shard.NewTree(f, 8, core.Config{Epsilon: 0.5}, comm, shard.Options{Shards: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(); err != nil {
		t.Fatal(err)
	}
	if err := killSubtree(tr, 2); err != nil {
		t.Fatal(err)
	}

	bad := []*core.SubtreeRejoin{
		{ShardID: 99, IDs: []int{4, 5}, Xs: [][]float64{{1, 1}, {1, 1}}},           // unknown shard
		{ShardID: 2, IDs: []int{4}, Xs: [][]float64{{1, 1}}},                       // partial population
		{ShardID: 2, IDs: []int{4, 6}, Xs: [][]float64{{1, 1}, {1, 1}}},            // foreign node
		{ShardID: 2, IDs: []int{4, 5}, Xs: [][]float64{{1, 1}, {1, 1, 1}}},         // wrong dimension
		{ShardID: 2, IDs: []int{4, 5, 6}, Xs: [][]float64{{1, 1}, {1, 1}, {1, 1}}}, // inflated population
	}
	for _, m := range bad {
		if err := tr.HandleSubtreeRejoinMsg(m); err == nil {
			t.Errorf("forged rejoin frame %+v accepted", m)
		}
	}
	if tr.LiveCount() != 6 {
		t.Fatalf("forged frames changed liveness: %d live", tr.LiveCount())
	}
	ok := &core.SubtreeRejoin{ShardID: 2, IDs: []int{4, 5}, Xs: [][]float64{{0.6, 0.6}, {0.4, 0.4}}}
	if err := tr.HandleSubtreeRejoinMsg(ok); err != nil {
		t.Fatal(err)
	}
	if tr.Degraded() {
		t.Fatal("valid rejoin frame did not heal the tree")
	}
}

// TestModeAbsorbAbsorbsLocally proves the leaf-tier machine resolves a small
// safe-zone violation inside its partition — no root full sync — and that a
// violation it cannot absorb escalates. The perturbed node starts exactly at
// the reference point, so half its displacement (the 2-node balancing mean)
// is inside any convex zone whose boundary the displacement just crossed.
func TestModeAbsorbAbsorbsLocally(t *testing.T) {
	f := funcs.SqNorm(2)
	base := []float64{0.5, 0.5}
	nodes, comm := newCluster(t, f, 9, func(i int) []float64 { return append([]float64(nil), base...) })
	reg := obs.NewRegistry()
	tr, err := shard.NewTree(f, 9, core.Config{Epsilon: 0.2, Metrics: reg}, comm,
		shard.Options{Shards: 3, Fanout: 2, Mode: shard.ModeAbsorb})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Init(); err != nil {
		t.Fatal(err)
	}
	syncsAfterInit := tr.Stats().FullSyncs

	// Grow the displacement until node 0 reports a violation.
	var v *core.Violation
	for d := 0.01; d < 10; d *= 2 {
		v = nodes[0].UpdateData([]float64{base[0] + d, base[1] + d})
		if v != nil {
			break
		}
	}
	if v == nil {
		t.Fatal("no displacement ever left the safe zone")
	}
	if err := tr.HandleViolation(v); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["automon_shard_absorbed_violations_total"] < 1 {
		t.Fatalf("violation was not absorbed at the leaf: %v", snap["automon_shard_absorbed_violations_total"])
	}
	if got := tr.Stats().FullSyncs; got != syncsAfterInit {
		t.Fatalf("absorbed violation still caused a root full sync (%d -> %d)", syncsAfterInit, got)
	}

	// A displacement far beyond anything the partition can balance escalates.
	v = nodes[1].UpdateData([]float64{base[0] + 50, base[1] + 50})
	if v == nil {
		t.Fatal("huge displacement produced no violation")
	}
	if err := tr.HandleViolation(v); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if snap["automon_shard_escalated_violations_total"] < 1 {
		t.Fatal("unabsorbable violation was not escalated")
	}
	if got := tr.Stats().FullSyncs; got <= syncsAfterInit {
		t.Fatal("escalated violation never reached the root")
	}
}
