package sim

import (
	"math"
	"testing"

	"automon/internal/baselines"
	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/stream"
)

func TestCentralizationIsExactAndExpensive(t *testing.T) {
	f := funcs.InnerProduct(4)
	ds := stream.InnerProductPhases(4, 5, 120, 1)
	res, err := Run(Config{F: f, Data: ds, Algorithm: Centralization, Core: core.Config{Epsilon: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr != 0 {
		t.Fatalf("centralization error = %v, want 0", res.MaxErr)
	}
	if res.Messages != 120*5 {
		t.Fatalf("centralization messages = %d, want %d", res.Messages, 120*5)
	}
}

func TestPeriodicTradesErrorForMessages(t *testing.T) {
	f := funcs.InnerProduct(4)
	ds := stream.InnerProductPhases(4, 5, 200, 1)
	fast, err := Run(Config{F: f, Data: ds, Algorithm: Periodic, Period: 5, Core: core.Config{Epsilon: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{F: f, Data: ds, Algorithm: Periodic, Period: 50, Core: core.Config{Epsilon: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Messages <= slow.Messages {
		t.Fatalf("shorter period must send more: %d vs %d", fast.Messages, slow.Messages)
	}
	if fast.MaxErr >= slow.MaxErr {
		t.Fatalf("shorter period must err less: %v vs %v", fast.MaxErr, slow.MaxErr)
	}
	if _, err := Run(Config{F: f, Data: ds, Algorithm: Periodic}); err == nil {
		t.Fatal("Period = 0 must be rejected")
	}
}

func TestAutoMonInnerProductBeatsCentralization(t *testing.T) {
	f := funcs.InnerProduct(4)
	ds := stream.InnerProductPhases(4, 5, 200, 1)
	eps := 0.3
	res, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	central, err := Run(Config{F: f, Data: ds, Algorithm: Centralization, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	// ADCD-E gives a deterministic guarantee for the inner product.
	if res.MaxErr > eps+1e-9 {
		t.Fatalf("AutoMon error %v above bound %v", res.MaxErr, eps)
	}
	if res.Messages >= central.Messages {
		t.Fatalf("AutoMon used %d messages, centralization %d", res.Messages, central.Messages)
	}
	if res.MissedRounds != 0 {
		t.Fatalf("guaranteed run reported %d missed rounds", res.MissedRounds)
	}
}

func TestCBMatchesAutoMonOnInnerProduct(t *testing.T) {
	// §4.3: ADCD-E automatically recovers the hand-crafted CB decomposition
	// for the inner product, so the two runs should behave near-identically.
	f := funcs.InnerProduct(4)
	ds := stream.InnerProductPhases(4, 5, 300, 2)
	eps := 0.25
	auto, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon,
		Core: core.Config{Epsilon: eps, ZoneBuilder: baselines.ConvexBoundInnerProduct(4)}})
	if err != nil {
		t.Fatal(err)
	}
	if cb.MaxErr > eps+1e-9 {
		t.Fatalf("CB error %v above bound", cb.MaxErr)
	}
	lo, hi := float64(auto.Messages), float64(cb.Messages)
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 1.5*lo+20 {
		t.Fatalf("CB (%d msgs) and AutoMon (%d msgs) should be close", cb.Messages, auto.Messages)
	}
}

func TestAutoMonWithTuningOnRosenbrock(t *testing.T) {
	f := funcs.Rosenbrock()
	ds := stream.GaussianNoise(2, 4, 260, 0, 0.2, 3)
	eps := 0.4
	res, err := Run(Config{
		F: f, Data: ds, Algorithm: AutoMon, TuneRounds: 60,
		Core: core.Config{Epsilon: eps, Decomp: core.DecompOptions{Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TunedR <= 0 {
		t.Fatalf("tuned R = %v", res.TunedR)
	}
	if res.Rounds != 200 {
		t.Fatalf("monitored rounds = %d, want 200 (260 − 60 tuning)", res.Rounds)
	}
	// ADCD-X carries no hard guarantee, but the sanity check keeps the error
	// near the bound.
	if res.MaxErr > 3*eps {
		t.Fatalf("error %v far above bound %v", res.MaxErr, eps)
	}
}

func TestTraceRecording(t *testing.T) {
	f := funcs.InnerProduct(2)
	ds := stream.InnerProductPhases(2, 3, 50, 4)
	res, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Trace: true, Core: core.Config{Epsilon: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EstTrace) != res.Rounds || len(res.TrueTrace) != res.Rounds ||
		len(res.ErrTrace) != res.Rounds || len(res.CumMessages) != res.Rounds {
		t.Fatalf("trace lengths %d/%d/%d/%d, want %d", len(res.EstTrace), len(res.TrueTrace),
			len(res.ErrTrace), len(res.CumMessages), res.Rounds)
	}
	for i := range res.ErrTrace {
		if math.Abs(res.EstTrace[i]-res.TrueTrace[i])-res.ErrTrace[i] > 1e-12 {
			t.Fatal("trace inconsistency")
		}
	}
	// Without Trace, traces are dropped but aggregates remain.
	res2, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ErrTrace != nil || res2.EstTrace != nil {
		t.Fatal("traces kept without Trace flag")
	}
	if res2.MaxErr != res.MaxErr {
		t.Fatal("trace flag changed the run")
	}
}

func TestSingleNodeUpdatesPerRound(t *testing.T) {
	// Intrusion-style datasets update a single node per round; everything
	// must still work, and centralization sends 1 message per round.
	in := stream.NewIntrusion(4, 150, 5)
	f := funcs.SqNorm(stream.IntrusionFeatures)
	res, err := Run(Config{F: f, Data: in.Dataset, Algorithm: Centralization, Core: core.Config{Epsilon: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 150 {
		t.Fatalf("centralization messages = %d, want 150", res.Messages)
	}
}

func TestVarianceMonitoringEndToEnd(t *testing.T) {
	// Variance via augmented local vectors [v, v²] (paper footnote 3): the
	// function of the average is exactly the population variance, AutoMon
	// picks ADCD-E (concave difference), and the ε bound is deterministic.
	f := funcs.Variance()
	ds := stream.NewCustom("variance", 4, 250, 10, 2, func(round, node int) []float64 {
		spread := 0.2 + 2.5*float64(round)/250 // variance grows over time
		v := float64(node%2)*2 - 1             // ±1 pattern across nodes
		return funcs.AugmentSquares(v*spread + 0.05*float64(round%5))
	})
	eps := 0.2
	res, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > eps+1e-9 {
		t.Fatalf("variance bound broken: %v > %v", res.MaxErr, eps)
	}
	central, err := Run(Config{F: f, Data: ds, Algorithm: Centralization, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages >= central.Messages {
		t.Fatalf("variance monitoring used %d msgs ≥ centralization %d", res.Messages, central.Messages)
	}
}

func TestCosineSimilarityMonitoringEndToEnd(t *testing.T) {
	// Cosine similarity of two drifting aggregate vectors: the Sharfman et
	// al. benchmark, monitored with automatically derived ADCD-X
	// constraints instead of hand-crafted sphere bounds.
	const half = 3
	f := funcs.CosineSimilarity(half)
	ds := stream.NewCustom("cosine-drift", 5, 300, 10, 2*half, func(round, node int) []float64 {
		// u stays near a fixed direction; v rotates slowly away from u, so
		// the cosine decays from ≈1 over the run.
		frac := float64(round) / 300
		x := make([]float64, 2*half)
		for i := 0; i < half; i++ {
			x[i] = 1 + 0.1*float64(node%2)
		}
		x[half] = 1 - frac
		x[half+1] = 1
		x[half+2] = 1 + 2*frac
		return x
	})
	eps := 0.05
	res, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon,
		Core: core.Config{Epsilon: eps, R: 0.4, Decomp: core.DecompOptions{Seed: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	// ADCD-X carries no hard guarantee; with the sanity check it should
	// stay near the bound.
	if res.MaxErr > 2*eps {
		t.Fatalf("cosine error %v far above bound %v", res.MaxErr, eps)
	}
	central, err := Run(Config{F: f, Data: ds, Algorithm: Centralization, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages >= central.Messages {
		t.Fatalf("cosine monitoring used %d msgs ≥ centralization %d", res.Messages, central.Messages)
	}
}

func TestSketchedF2MonitoringEndToEnd(t *testing.T) {
	// §5 composition: nodes sketch their substreams with shared-seed AMS
	// sketches; the query f(x̄) = (1/rows)Σx̄² is a quadratic form, so
	// AutoMon monitors the global second moment with ADCD-E and a
	// deterministic guarantee — at a fraction of the messages.
	const rows, cols = 4, 32
	f := funcs.AMSF2(rows, cols)
	ds := stream.ZipfTurnstile(5, 400, rows, cols, 17)
	eps := 0.05
	res, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > eps+1e-9 {
		t.Fatalf("sketched-F2 bound broken: %v > %v", res.MaxErr, eps)
	}
	central, err := Run(Config{F: f, Data: ds, Algorithm: Centralization, Core: core.Config{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages >= central.Messages {
		t.Fatalf("sketched F2 used %d msgs ≥ centralization %d", res.Messages, central.Messages)
	}
	// The heavy-hitter burst must actually move the monitored quantity —
	// otherwise this test proves nothing.
	trace, err := Run(Config{F: f, Data: ds, Algorithm: Centralization, Core: core.Config{Epsilon: eps}, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := trace.TrueTrace[0], trace.TrueTrace[0]
	for _, v := range trace.TrueTrace {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 5*eps {
		t.Fatalf("workload too flat to be meaningful: F2 range [%v, %v]", lo, hi)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil F/Data must be rejected")
	}
	// The baselines build no tree, so a topology setting would be ignored.
	f := funcs.InnerProduct(2)
	ds := stream.InnerProductPhases(2, 3, 20, 1)
	for _, alg := range []Algorithm{Centralization, Periodic} {
		for _, topo := range []Config{{Shards: 4}, {TreeFanout: 2}, {ShardAbsorb: true}} {
			topo.F, topo.Data, topo.Algorithm, topo.Period = f, ds, alg, 5
			if _, err := Run(topo); err == nil {
				t.Errorf("%s accepted shards=%d fanout=%d absorb=%v", alg, topo.Shards, topo.TreeFanout, topo.ShardAbsorb)
			}
		}
	}
}

func TestMessageBytesAccounted(t *testing.T) {
	f := funcs.InnerProduct(2)
	ds := stream.InnerProductPhases(2, 3, 60, 4)
	res, err := Run(Config{F: f, Data: ds, Algorithm: AutoMon, Core: core.Config{Epsilon: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytes <= 0 {
		t.Fatal("no payload bytes accounted")
	}
	var total int
	for _, c := range res.MessagesByType {
		total += c
	}
	if total != res.Messages {
		t.Fatalf("per-type counts (%d) disagree with total (%d)", total, res.Messages)
	}
}
