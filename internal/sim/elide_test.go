package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/nn"
	"automon/internal/stream"
)

// kldLikeDataset generates drifting [p, q] histogram pairs on the unit box
// for the KLD differential (cheaper and fully deterministic compared to the
// air-quality generator).
func kldLikeDataset(bins, nodes, rounds int) *stream.Dataset {
	d := 2 * bins
	return stream.NewCustom("kld-drift", nodes, rounds, 10, d, func(r, i int) []float64 {
		x := make([]float64, d)
		var sp, sq float64
		for b := 0; b < bins; b++ {
			p := 1 + math.Sin(float64(r)/40+float64(b)+0.1*float64(i))
			q := 1 + math.Cos(float64(r)/55+float64(b))
			x[b], x[bins+b] = p, q
			sp, sq = sp+p, sq+q
		}
		for b := 0; b < bins; b++ {
			x[b] /= sp
			x[bins+b] /= sq
		}
		return x
	})
}

// varianceDataset streams augmented [v, v²] samples (footnote 3) with a slow
// mean drift.
func varianceDataset(nodes, rounds int) *stream.Dataset {
	return stream.NewCustom("variance-drift", nodes, rounds, 10, 2, func(r, i int) []float64 {
		v := 0.5*math.Sin(float64(r)/30) + 0.1*float64(i%3)
		return funcs.AugmentSquares(v)
	})
}

// elideCases covers every bundled function constructor that carries a
// curvature bound — constant-Hessian (ADCD-E) and bounded-Hessian (ADCD-X)
// alike — each over a dataset that actually moves the monitored quantity.
func elideCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	const rows, cols = 3, 16
	logw := []float64{0.8, -0.5, 0.3}
	return []struct {
		name string
		cfg  Config
	}{
		{"inner-product", Config{
			F: funcs.InnerProduct(4), Data: stream.InnerProductPhases(4, 5, 200, 1),
			Core: core.Config{Epsilon: 0.3}}},
		{"quadratic", Config{
			F: funcs.RandomQuadratic(6, 1), Data: stream.QuadraticOutlier(6, 4, 200, 2),
			Core: core.Config{Epsilon: 0.2}}},
		{"kld", Config{
			F: funcs.KLD(4, 0.1), Data: kldLikeDataset(4, 4, 200),
			Core: core.Config{Epsilon: 0.05, R: 0.2, Decomp: core.DecompOptions{Seed: 1}}}},
		{"entropy-tuned", Config{
			F: funcs.Entropy(6, 0.1), Data: stream.NewAirQuality(4, 3, 240, 3), TuneRounds: 40,
			Core: core.Config{Epsilon: 0.05, Decomp: core.DecompOptions{Seed: 2, OptStarts: 1, OptMaxIter: 25, OptMaxFunEvals: 150}}}},
		{"logistic", Config{
			F: funcs.Logistic(logw, -0.2), Data: stream.GaussianNoise(3, 4, 200, 0, 0.2, 4),
			Core: core.Config{Epsilon: 0.02, R: 0.5, Decomp: core.DecompOptions{Seed: 3}}}},
		{"sine", Config{
			F: funcs.Sine(), Data: stream.GaussianNoise(1, 4, 200, 1.3, 0.05, 5),
			Core: core.Config{Epsilon: 0.05, R: 0.3, Decomp: core.DecompOptions{Seed: 4}}}},
		{"saddle", Config{
			F: funcs.Saddle(), Data: stream.GaussianNoise(2, 4, 200, 0.5, 0.1, 6),
			Core: core.Config{Epsilon: 0.1}}},
		{"variance", Config{
			F: funcs.Variance(), Data: varianceDataset(4, 200),
			Core: core.Config{Epsilon: 0.1}}},
		{"sqnorm", Config{
			F: funcs.SqNorm(5), Data: stream.GaussianNoise(5, 4, 200, 0.3, 0.1, 7),
			Core: core.Config{Epsilon: 0.15}}},
		{"ams-f2", Config{
			F: funcs.AMSF2(rows, cols), Data: stream.ZipfTurnstile(4, 200, rows, cols, 8),
			Core: core.Config{Epsilon: 0.1}}},
	}
}

// TestElideDifferentialAcrossZoo replays every curvature-carrying bundled
// function through the per-round and elided sim paths and demands the full
// Result — message counts by type, payload bytes, error series, coordinator
// stats, traces — be identical. Check elision must be invisible to the
// protocol.
func TestElideDifferentialAcrossZoo(t *testing.T) {
	anyElided := false
	for _, tc := range elideCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			refCfg := tc.cfg
			refCfg.Trace = true
			ref, err := Run(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			elCfg := refCfg
			elCfg.Elide = true
			el, err := Run(elCfg)
			if err != nil {
				t.Fatal(err)
			}
			if el.ElidedChecks > 0 {
				anyElided = true
			}
			t.Logf("%s: rounds=%d elided=%d msgs=%d", tc.name, el.Rounds, el.ElidedChecks, el.Messages)
			scrubbed := *el
			scrubbed.ElidedChecks = 0
			if !reflect.DeepEqual(*ref, scrubbed) {
				t.Fatalf("elided run diverges from per-round run:\nref    %+v\nelided %+v", *ref, scrubbed)
			}
			if ref.RefusedSyncs != 0 {
				t.Fatalf("%d syncs refused by their node", ref.RefusedSyncs)
			}
		})
	}
	if !anyElided {
		t.Fatal("no case ever elided a check — the budget never engages in sim")
	}
}

// TestElideRejectsUnboundedCurvature: functions with no curvature bound
// (unbounded or unknown Hessians) must fail loudly under Elide rather than
// silently running per-round.
func TestElideRejectsUnboundedCurvature(t *testing.T) {
	tiny, err := nn.New(rand.New(rand.NewSource(1)), []int{2, 3, 1}, []nn.Activation{nn.Tanh, nn.Identity})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		f    *core.Function
	}{
		{"cosine", funcs.CosineSimilarity(2)},
		{"rosenbrock", funcs.Rosenbrock()},
		{"network", funcs.Network("tiny-net", tiny)},
	} {
		cfg := Config{
			F: tc.f, Data: stream.GaussianNoise(tc.f.Dim(), 3, 40, 0.8, 0.05, 9),
			Core:  core.Config{Epsilon: 0.5, R: 0.3, Decomp: core.DecompOptions{Seed: 5}},
			Elide: true,
		}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "curvature") {
			t.Fatalf("%s: want loud curvature error under Elide, got %v", tc.name, err)
		}
		cfg.Elide = false
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: per-round run must still work: %v", tc.name, err)
		}
	}
}
