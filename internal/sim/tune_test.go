package sim

import (
	"math"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/core"
	"automon/internal/stream"
)

// TestRunProceedsWhenTuningBracketDoesNotConverge: a tuning prefix on which
// Algorithm 2's bracket fails at both ends — every radius down to 2⁻¹⁹ still
// sees safe-zone violations (the stream creeps by 10⁻⁷ per round against
// ε = 10⁻⁹), and every radius up to 2¹⁹ still sees neighborhood violations
// (node 0 jumps by 0.8 in round 5, which carries its slacked vector past the
// domain face that clips every neighborhood box). r
// only affects communication, never ε-correctness, so Run must monitor with
// the grid point core.Tune still returns and say so in the Result, not abort
// (this is what made `automon-bench -fig 7a` fail on KLD d = 100).
func TestRunProceedsWhenTuningBracketDoesNotConverge(t *testing.T) {
	f := core.NewFunction("exp", 1, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Exp(x[0])
	}).WithDomain([]float64{0}, []float64{1})
	const eps = 1e-9
	ds := stream.NewCustom("creep", 3, 30, 1, 1, func(round, node int) []float64 {
		if node == 0 {
			if round < 5 {
				return []float64{0.1}
			}
			return []float64{0.9}
		}
		return []float64{0.3 + 1e-7*float64(round)}
	})
	res, err := Run(Config{
		F: f, Data: ds, Algorithm: AutoMon, TuneRounds: 10,
		Core: core.Config{Epsilon: eps, Decomp: core.DecompOptions{Seed: 1}},
	})
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if !res.TuneUnconverged {
		t.Fatal("the bracket converged; the stream no longer provokes the failure this test guards")
	}
	if !(res.TunedR > 0) || math.IsInf(res.TunedR, 0) {
		t.Fatalf("TunedR = %v, want the best grid point", res.TunedR)
	}
	if res.Rounds != 20 || res.RefusedSyncs != 0 {
		t.Fatalf("monitored %d rounds with %d refused syncs, want 20 and 0", res.Rounds, res.RefusedSyncs)
	}
	if res.MissedRounds != 0 {
		t.Fatalf("%d rounds above ε (max error %g): the radius must not affect correctness", res.MissedRounds, res.MaxErr)
	}
}
