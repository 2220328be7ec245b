package sim

import (
	"math"
	"os"
	"runtime"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/shard"
	"automon/internal/stream"
)

// TestBigTreeSim is the scale smoke (CI's big-sim job, gated behind
// AUTOMON_BIG_SIM=1): 100 000 nodes through a three-tier tree (64 leaf
// shards at fan-out 8), with a whole-sub-tree kill and rejoin mid-run. The
// run must hold the ε guarantee and stay under a heap ceiling — per-shard
// state is O(partition size), so the tree adds only a constant factor over
// the node vectors themselves.
func TestBigTreeSim(t *testing.T) {
	if os.Getenv("AUTOMON_BIG_SIM") == "" {
		t.Skip("set AUTOMON_BIG_SIM=1 to run the 100k-node smoke")
	}
	const (
		n      = 100_000
		rounds = 4
		dim    = 2
	)
	data := stream.NewCustom("big-drift", n, rounds, 2, dim, func(r, i int) []float64 {
		base := 0.5 + 0.1*math.Sin(float64(i%97)/97)
		return []float64{base, base + 0.001*float64(r)}
	})
	var chaosErr error
	var liveHeap uint64
	cfg := Config{
		F:    funcs.SqNorm(dim),
		Data: data,
		Core: core.Config{Epsilon: 0.5},

		Shards:     64,
		TreeFanout: 8,
		shardChaos: func(round int, tr *shard.Tree) {
			// Shard 64 is the first interior branch: leaves 0–7, an eighth of
			// the population. Kill it on round 1, heal it on round 2.
			switch round {
			case 1:
				if err := killSubtree(tr, 64); err != nil && chaosErr == nil {
					chaosErr = err
				}
			case 2:
				if err := rejoinSubtree(tr, 64); err != nil && chaosErr == nil {
					chaosErr = err
				}
			case rounds - 1:
				// Measure the live set while every window, node, and shard
				// structure is still reachable — after the run it is all
				// garbage and the ceiling would assert nothing.
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				liveHeap = ms.HeapAlloc
			}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	if res.Stats.NodeDeaths != n/8 || res.Stats.Rejoins != n/8 {
		t.Errorf("sub-tree chaos tallies wrong: deaths=%d rejoins=%d, want %d each",
			res.Stats.NodeDeaths, res.Stats.Rejoins, n/8)
	}
	// Rounds 1–2 run degraded by design; the guarantee must hold outside the
	// partition window.
	for _, r := range []int{0, 3} {
		if res.ErrTrace != nil && res.ErrTrace[r] > cfg.Core.Epsilon {
			t.Errorf("round %d error %v exceeds ε=%v", r, res.ErrTrace[r], cfg.Core.Epsilon)
		}
	}
	if res.MissedRounds > 2 {
		t.Errorf("%d rounds over ε; only the two degraded rounds may miss", res.MissedRounds)
	}

	const heapCeiling = 1 << 30 // 1 GiB for 100k nodes ≈ 10 KiB/node, generous
	if liveHeap == 0 {
		t.Error("in-run heap measurement never ran")
	}
	if liveHeap > heapCeiling {
		t.Errorf("live heap during run: %d MiB exceeds the %d MiB ceiling",
			liveHeap>>20, heapCeiling>>20)
	}
	t.Logf("n=%d rounds=%d msgs=%d fullsyncs=%d live heap=%d MiB",
		n, res.Rounds, res.Messages, res.Stats.FullSyncs, liveHeap>>20)
}
