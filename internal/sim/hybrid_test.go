package sim

import (
	"math"
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
