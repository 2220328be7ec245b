package sim

import (
	"math"
	"reflect"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/stream"
)

// noisyQuadratic builds a workload whose per-node jitter makes pure AutoMon
// costlier than centralization at a tight ε, so the hybrid policy must kick
// in.
func noisyWorkload() (*core.Function, *stream.Dataset) {
	f := funcs.SqNorm(2)
	ds := stream.GaussianNoise(2, 6, 400, 1, 0.4, 11)
	return f, ds
}

func TestHybridCapsMessageRate(t *testing.T) {
	f, ds := noisyWorkload()
	eps := 0.02 // tight: plain AutoMon churns
	auto, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(Config{F: f, Data: ds, Algorithm: Hybrid, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	central, err := Run(Config{F: f, Data: ds, Algorithm: Centralization, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Messages <= central.Messages {
		t.Skipf("workload not churny enough to exercise the fallback (automon %d ≤ central %d)",
			auto.Messages, central.Messages)
	}
	if hybrid.Messages >= auto.Messages {
		t.Fatalf("hybrid (%d msgs) must beat plain AutoMon (%d) on a churny workload",
			hybrid.Messages, auto.Messages)
	}
	// The fallback budget allows at most ~centralization cost per window
	// plus the resync overhead; 2× centralization is a generous envelope.
	if hybrid.Messages > 2*central.Messages {
		t.Fatalf("hybrid (%d msgs) exceeded its budget envelope (central %d)",
			hybrid.Messages, central.Messages)
	}
	// Accuracy must not degrade: centralized phases are exact, AutoMon
	// phases carry the ADCD-E guarantee.
	if hybrid.MaxErr > eps+1e-9 {
		t.Fatalf("hybrid error %v above bound %v", hybrid.MaxErr, eps)
	}
}

func TestHybridStaysOnAutoMonWhenCheap(t *testing.T) {
	// On a quiet workload the budget is never exceeded, so Hybrid should
	// behave exactly like AutoMon (same messages).
	f := funcs.SqNorm(2)
	ds := stream.GaussianNoise(2, 4, 200, 1, 0.01, 3)
	eps := 0.5
	auto, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(Config{F: f, Data: ds, Algorithm: Hybrid, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Messages != auto.Messages {
		t.Fatalf("quiet workload: hybrid %d msgs, automon %d", hybrid.Messages, auto.Messages)
	}
	if math.Abs(hybrid.MaxErr-auto.MaxErr) > 1e-12 {
		t.Fatalf("quiet workload: hybrid error %v, automon %v", hybrid.MaxErr, auto.MaxErr)
	}
}

// TestHybridRunsAutoMonSetup pins that Hybrid's AutoMon phase is AutoMon: it
// runs the tuning prefix (ADCD-X at r = 0 could never grow r by §3.6
// doubling) and the shard tree, and on a stream that never exceeds the
// budget its Result is AutoMon's in every field but the algorithm's name.
func TestHybridRunsAutoMonSetup(t *testing.T) {
	base := Config{
		F: funcs.Rosenbrock(), Data: stream.GaussianNoise(2, 4, 260, 0, 0.2, 3), TuneRounds: 60,
		Core: core.Config{Epsilon: 0.4, Decomp: core.DecompOptions{Seed: 1}},
	}
	run := func(cfg Config, alg Algorithm) *Result {
		t.Helper()
		cfg.Algorithm = alg
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	auto, hybrid := run(base, AutoMon), run(base, Hybrid)
	if hybrid.TunedR <= 0 || hybrid.TunedR != auto.TunedR || hybrid.Rounds != auto.Rounds {
		t.Fatalf("hybrid tuned r = %v over %d rounds, automon r = %v over %d",
			hybrid.TunedR, hybrid.Rounds, auto.TunedR, auto.Rounds)
	}

	quiet := base
	quiet.Data = stream.GaussianNoise(2, 4, 260, 0, 0.01, 3)
	quiet.Shards, quiet.TreeFanout, quiet.Trace = 2, 2, true
	auto, hybrid = run(quiet, AutoMon), run(quiet, Hybrid)
	hybrid.Algorithm = auto.Algorithm
	if !reflect.DeepEqual(auto, hybrid) {
		t.Fatalf("quiet stream: hybrid diverged from automon:\nautomon %+v\nhybrid  %+v", *auto, *hybrid)
	}
	if auto.TunedR <= 0 || auto.Stats.FullSyncs == 0 {
		t.Fatalf("quiet stream exercises neither tuning nor the tree: r = %v, %d full syncs",
			auto.TunedR, auto.Stats.FullSyncs)
	}
}
