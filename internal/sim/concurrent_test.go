package sim

import (
	"math"
	"sync"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/obs"
	"automon/internal/stream"
)

// bitsEqual compares two float64 series for bit-identity.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runConcurrently runs every config on its own goroutine, the in-process
// analogue of a transport.MultiCoordinator hosting several tenants over one
// listener, and returns the results in input order.
func runConcurrently(t *testing.T, cfgs []Config) []*Result {
	t.Helper()
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	return results
}

// groupConfigs builds three tenants; with metrics, each run's coordinator
// gets a private registry.
func groupConfigs(metrics bool) []Config {
	cfgs := []Config{
		{F: funcs.InnerProduct(4), Data: stream.InnerProductPhases(4, 5, 120, 1),
			Algorithm: AutoMon, Core: core.Config{Epsilon: 0.3}, Trace: true},
		{F: funcs.SqNorm(3), Data: stream.GaussianNoise(3, 4, 100, 1, 0.2, 2),
			Algorithm: AutoMon, Core: core.Config{Epsilon: 0.5}, Trace: true},
		{F: funcs.InnerProduct(4), Data: stream.InnerProductPhases(4, 5, 120, 3),
			Algorithm: Centralization, Core: core.Config{Epsilon: 0.1}, Trace: true},
	}
	if metrics {
		for i := range cfgs {
			cfgs[i].Core.Metrics = obs.NewRegistry()
		}
	}
	return cfgs
}

// TestConcurrentRunsMatchSoloRuns pins the isolation contract of concurrent
// runs: every run's result — messages, bytes, protocol stats, and the full
// per-round estimate trace — is bit-identical to a solo Run of the same
// config.
func TestConcurrentRunsMatchSoloRuns(t *testing.T) {
	grouped := runConcurrently(t, groupConfigs(true))
	solos := groupConfigs(false)
	for i, cfg := range solos {
		solo, err := Run(cfg)
		if err != nil {
			t.Fatalf("solo run %d: %v", i, err)
		}
		g := grouped[i]
		if g.Messages != solo.Messages || g.PayloadBytes != solo.PayloadBytes {
			t.Errorf("group %d traffic diverged: %d msgs/%d B vs solo %d msgs/%d B",
				i, g.Messages, g.PayloadBytes, solo.Messages, solo.PayloadBytes)
		}
		if g.Stats != solo.Stats {
			t.Errorf("group %d protocol stats diverged: %+v vs %+v", i, g.Stats, solo.Stats)
		}
		if !bitsEqual(g.EstTrace, solo.EstTrace) {
			t.Errorf("group %d estimate trace not bit-identical to solo run", i)
		}
		if !bitsEqual(g.ErrTrace, solo.ErrTrace) {
			t.Errorf("group %d error trace not bit-identical to solo run", i)
		}
	}
}
