package oracle_test

// The ε-oracle differential suite: every bundled function of internal/funcs
// is replayed through the full node/coordinator stack over loopback TCP
// against a centralized oracle computing the exact f(x̄). Constant-Hessian
// and convex/concave-difference functions (ADCD-E) carry the paper's
// deterministic guarantee and run at Tolerance 1 (= exactly ε); non-convex
// ADCD-X functions run at Tolerance 3, since their neighborhood-based
// decomposition makes the bound an engineering one, not a theorem.

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/oracle"
	"automon/internal/transport"
)

// specs builds the differential table: (function, ε, n) with a deterministic
// drift schedule per entry. Every funcs constructor appears at least once.
func specs(t *testing.T) []oracle.Spec {
	t.Helper()
	mlp, err := funcs.TrainMLP(2, 1)
	if err != nil {
		t.Fatalf("training MLP-2: %v", err)
	}
	logW := []float64{1, -0.5, 0.25}
	return []oracle.Spec{
		{
			Name: "inner-product/eps0.2/n3",
			F:    funcs.InnerProduct(2), N: 3, Eps: 0.2, Rounds: 8,
			Gen: func(r, i int) []float64 {
				u := 0.5 + 0.05*float64(r) + 0.02*float64(i)
				return []float64{u, u, 1, 1}
			},
		},
		{
			Name: "inner-product/eps0.05/n4",
			F:    funcs.InnerProduct(2), N: 4, Eps: 0.05, Rounds: 8,
			Gen: func(r, i int) []float64 {
				u := 0.5 + 0.05*float64(r) + 0.02*float64(i)
				return []float64{u, u, 1, 1}
			},
		},
		{
			// Same schedule as above, but with frames coalesced: the
			// guarantee must be transport-policy independent.
			Name: "inner-product/eps0.2/n3/batched",
			F:    funcs.InnerProduct(2), N: 3, Eps: 0.2, Rounds: 8,
			Opts: transport.Options{Batch: transport.BatchOptions{MaxBytes: 4096, MaxDelay: 2 * time.Millisecond}},
			Gen: func(r, i int) []float64 {
				u := 0.5 + 0.05*float64(r) + 0.02*float64(i)
				return []float64{u, u, 1, 1}
			},
		},
		{
			Name: "random-quadratic/eps0.2/n2",
			F:    funcs.RandomQuadratic(3, 1), N: 2, Eps: 0.2, Rounds: 8,
			Gen: func(r, i int) []float64 {
				v := 0.5 + 0.06*float64(r) + 0.03*float64(i)
				return []float64{v, v, v}
			},
		},
		{
			Name: "kld/eps0.05/n2",
			F:    funcs.KLD(2, 0.5), N: 2, Eps: 0.05, Rounds: 8,
			Gen: func(r, i int) []float64 {
				d := 0.02*float64(r) + 0.01*float64(i)
				return []float64{0.3 + d, 0.7 - d, 0.5, 0.5}
			},
		},
		{
			Name: "entropy/eps0.05/n2",
			F:    funcs.Entropy(3, 0.1), N: 2, Eps: 0.05, Rounds: 8,
			Gen: func(r, i int) []float64 {
				d := 0.02*float64(r) + 0.01*float64(i)
				return []float64{0.2 + d, 0.3, 0.5 - d}
			},
		},
		{
			Name: "variance/eps0.2/n3",
			F:    funcs.Variance(), N: 3, Eps: 0.2, Rounds: 8,
			Gen: func(r, i int) []float64 {
				return funcs.AugmentSquares(1 + 0.15*float64(r) + 0.3*float64(i))
			},
		},
		{
			Name: "ams-f2/eps0.2/n2",
			F:    funcs.AMSF2(2, 3), N: 2, Eps: 0.2, Rounds: 8,
			Gen: func(r, i int) []float64 {
				v := 0.3 + 0.04*float64(r) + 0.02*float64(i)
				return []float64{v, v, v, v, v, v}
			},
		},
		{
			Name: "sqnorm/eps0.3/n3",
			F:    funcs.SqNorm(3), N: 3, Eps: 0.3, Rounds: 8,
			Gen: func(r, i int) []float64 {
				v := 0.4 + 0.05*float64(r) + 0.02*float64(i)
				return []float64{v, v, v}
			},
		},
		{
			Name: "saddle/eps0.2/n2",
			F:    funcs.Saddle(), N: 2, Eps: 0.2, Rounds: 8,
			Gen: func(r, i int) []float64 {
				return []float64{0.3 + 0.05*float64(r) + 0.02*float64(i), 0.2 + 0.04*float64(r)}
			},
		},
		// Non-convex ADCD-X cases: fixed neighborhood radius, 3·ε bound.
		{
			Name: "logistic/eps0.05/n2",
			F:    funcs.Logistic(logW, -0.1), N: 2, Eps: 0.05, Rounds: 8,
			Tolerance: 3, Core: core.Config{R: 0.5},
			Gen: func(r, i int) []float64 {
				return []float64{
					0.2 + 0.05*float64(r),
					0.1 + 0.03*float64(r) + 0.05*float64(i),
					-0.1 + 0.04*float64(r),
				}
			},
		},
		{
			Name: "cosine/eps0.1/n2",
			F:    funcs.CosineSimilarity(2), N: 2, Eps: 0.1, Rounds: 8,
			Tolerance: 3, Core: core.Config{R: 0.4},
			Gen: func(r, i int) []float64 {
				th := 0.1 + 0.05*float64(r) + 0.02*float64(i)
				return []float64{math.Cos(th), math.Sin(th), 1, 0.2}
			},
		},
		{
			Name: "rosenbrock/eps0.5/n2",
			F:    funcs.Rosenbrock(), N: 2, Eps: 0.5, Rounds: 8,
			Tolerance: 3, Core: core.Config{R: 0.5},
			Gen: func(r, i int) []float64 {
				return []float64{1 + 0.03*float64(r) + 0.01*float64(i), 1 + 0.06*float64(r)}
			},
		},
		{
			Name: "sine/eps0.1/n2",
			F:    funcs.Sine(), N: 2, Eps: 0.1, Rounds: 8,
			Tolerance: 3, Core: core.Config{R: 0.5},
			Gen: func(r, i int) []float64 {
				return []float64{0.4 + 0.2*float64(r) + 0.05*float64(i)}
			},
		},
		{
			Name: "mlp-2/eps0.1/n2",
			F:    mlp, N: 2, Eps: 0.1, Rounds: 8,
			Tolerance: 3, Core: core.Config{R: 0.5},
			Gen: func(r, i int) []float64 {
				return []float64{-0.5 + 0.1*float64(r) + 0.05*float64(i), 0.3 + 0.05*float64(r)}
			},
		},
	}
}

// TestDifferentialOracle replays every spec and requires that no quiesced
// round ever exceeds the spec's bound, that the schedule really ran, and
// that across the whole table the protocol was genuinely exercised (the
// suite would prove nothing if no schedule ever left its safe zone).
func TestDifferentialOracle(t *testing.T) {
	var violations atomic.Int64
	for _, sp := range specs(t) {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := oracle.Replay(sp)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rounds) != sp.Rounds {
				t.Fatalf("replayed %d rounds, want %d", len(rep.Rounds), sp.Rounds)
			}
			if len(rep.Bad) > 0 {
				r := rep.Rounds[rep.Bad[0]-1]
				t.Errorf("%d rounds broke the %v bound; first: round %d estimate %v truth %v (err %v)",
					len(rep.Bad), rep.Bound, r.Round, r.Estimate, r.Truth, r.Err)
			}
			if rep.Stats.FullSyncs < 1 {
				t.Error("not even the initial full sync was recorded")
			}
			if rep.RefusedSyncs != 0 {
				t.Errorf("%d syncs refused by their node", rep.RefusedSyncs)
			}
			violations.Add(int64(rep.Stats.SafeZoneViolations + rep.Stats.NeighborhoodViolations))
		})
	}
	t.Cleanup(func() {
		if violations.Load() == 0 {
			t.Error("no schedule in the table triggered a single violation; the differential suite exercised nothing")
		}
	})
}

// TestReplayValidatesSpec pins the harness's own argument checking.
func TestReplayValidatesSpec(t *testing.T) {
	if _, err := oracle.Replay(oracle.Spec{Name: "empty"}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := oracle.Replay(oracle.Spec{
		Name: "no-gen", F: funcs.SqNorm(1), N: 1, Eps: 0.1, Rounds: 1,
	}); err == nil {
		t.Fatal("spec without Gen accepted")
	}
}
