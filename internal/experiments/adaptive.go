package experiments

import (
	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/optimize"
	"automon/internal/sim"
	"automon/internal/stream"
)

// This file is the adaptive-radius evaluation: the §3.6 fallback only ever
// grows r, so any bursty regime permanently inflates the neighborhood and
// every post-burst zone is built over a wider box than the tuned optimum.
// The sweep pairs a static-r̂ run against an identical run with the
// drift-aware radius controller enabled (same stream, same tuning prefix,
// same ε) and reports the communication both pay after the burst passes.

// IntrusionEntropyWorkload monitors the entropy of the average KDD-like
// feature vector over the bursty intrusion stream (§4.2's data, with the
// paper's DNN swapped for the closed-form entropy so the sweep is cheap
// enough to pair many runs). Attack bursts push features well past the unit
// box, so the entropy domain is widened to cover the attacked range; the
// −1/(p+τ) curvature near the origin then penalizes oversized neighborhoods
// hard, which is exactly the failure mode the adaptive controller repairs.
func IntrusionEntropyWorkload(o Options, nodes, rounds int) *Workload {
	lo := make([]float64, stream.IntrusionFeatures)
	hi := make([]float64, stream.IntrusionFeatures)
	for i := range hi {
		hi[i] = 2.5
	}
	return &Workload{
		Name:       "intrusion-entropy",
		F:          funcs.Entropy(stream.IntrusionFeatures, 0.01).WithDomain(lo, hi),
		Data:       stream.NewIntrusion(nodes, o.rounds(rounds), o.Seed+10).Dataset,
		TuneRounds: o.rounds(200),
		Decomp:     o.decomp(core.DecompOptions{Seed: o.Seed, OptStarts: 1, OptMaxIter: 25, OptMaxFunEvals: 150}),
	}
}

// RegimeShiftWorkload is the second drift scenario: Rosenbrock inputs that
// are stationary N(0, 0.2²) except for one mid-run burst at a larger noise
// scale. The burst drives §3.6 doubling; afterwards the stream returns to
// the tuning-prefix statistics, so a static run demonstrably pays for state
// it carried out of the burst.
func RegimeShiftWorkload(o Options, nodes, rounds int) *Workload {
	return &Workload{
		Name:       "regime-rosenbrock",
		F:          funcs.Rosenbrock(),
		Data:       stream.RegimeShift(2, nodes, o.rounds(rounds), 0, 0.2, 0.7, o.Seed+11),
		TuneRounds: o.rounds(150),
		Decomp:     o.decomp(core.DecompOptions{Seed: o.Seed}),
	}
}

// AdaptivePair is one paired comparison: the same workload and ε monitored
// with a static (offline-tuned, §3.6-doubling-only) radius and with the
// adaptive controller. Both runs tune r̂ on the same prefix with the
// controller held off (core.Tune forces AdaptiveR off in its probes), so
// they enter monitoring with identical radii and diverge only in how they
// react to the burst.
type AdaptivePair struct {
	Workload string
	Eps      float64
	Static   *sim.Result
	Adaptive *sim.Result
}

// adaptiveScenario describes one row-pair of the sweep.
type adaptiveScenario struct {
	w   *Workload
	eps float64
	// rDoubleAfter lowers the §3.6 streak threshold so the scenario's bursts
	// actually engage the fallback path under study (the default 5n is sized
	// for node-failure storms, not data bursts).
	rDoubleAfter int
}

// adaptiveScenarios builds the sweep's workloads. Rounds are sized so every
// stream contains at least one complete burst after its tuning prefix.
func adaptiveScenarios(o Options) []adaptiveScenario {
	return []adaptiveScenario{
		{w: IntrusionEntropyWorkload(o, 9, 2000), eps: 0.3, rDoubleAfter: 6},
		{w: RegimeShiftWorkload(o, 6, 1500), eps: 0.5, rDoubleAfter: 6},
	}
}

// adaptiveConfigs returns the paired static/adaptive core configurations for
// one scenario. The static run is the seed behavior (§3.6 doubling with the
// RMax cap); the adaptive run adds the controller.
func adaptiveConfigs(s adaptiveScenario) (static, adaptive core.Config) {
	static = core.Config{
		ForceADCDX:   true,
		RDoubleAfter: s.rDoubleAfter,
		// Both arms run without LRU lazy sync so every unresolved violation
		// costs a full synchronization: full-sync counts then measure the
		// radius quality directly. (With lazy sync on, an oversized radius
		// mostly surfaces as balancing traffic instead — the messages column
		// of the rendered table shows the same ordering either way.)
		DisableLazySync: true,
	}
	adaptive = static
	adaptive.AdaptiveR = true
	return static, adaptive
}

// AdaptivePairs executes the adaptive-vs-static sweep and returns the paired
// results (the regression test asserts on them; AdaptiveTable renders the
// CSV). Scenarios fan out across Options.Workers; within a pair the two runs
// replay the same pre-generated dataset, so sharing the workload is safe.
func AdaptivePairs(o Options) ([]AdaptivePair, error) {
	scenarios := adaptiveScenarios(o)
	pairs := make([]AdaptivePair, len(scenarios))
	err := optimize.ForEach(o.Workers, len(scenarios), func(i int) error {
		s := scenarios[i]
		staticCfg, adaptiveCfg := adaptiveConfigs(s)
		st, err := s.w.run(sim.AutoMon, s.eps, 0, staticCfg)
		if err != nil {
			return err
		}
		ad, err := s.w.run(sim.AutoMon, s.eps, 0, adaptiveCfg)
		if err != nil {
			return err
		}
		pairs[i] = AdaptivePair{Workload: s.w.Name, Eps: s.eps, Static: st, Adaptive: ad}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// AdaptiveTable renders the adaptive-vs-static sweep (EXPERIMENTS.md's
// "adaptive radius" table; automon-bench fig "adaptive").
func AdaptiveTable(o Options) (*Table, error) {
	pairs, err := AdaptivePairs(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "adaptive radius: static r̂ vs drift-aware controller",
		Header: []string{
			"workload", "alg", "eps", "tuned_r", "final_r",
			"full_syncs", "messages", "payload_bytes",
			"neigh_viol", "sz_viol",
			"r_doublings", "r_saturations", "r_shrinks", "r_grows", "retunes",
			"max_err", "mean_err",
		},
	}
	add := func(wl string, eps float64, alg string, r *sim.Result) {
		t.Add(wl, alg, eps, r.TunedR, r.FinalR,
			r.Stats.FullSyncs, r.Messages, r.PayloadBytes,
			r.Stats.NeighborhoodViolations, r.Stats.SafeZoneViolations,
			r.Stats.RDoublings, r.Stats.RSaturations,
			r.Stats.RShrinks, r.Stats.RGrows, r.Stats.AdaptiveRetunes,
			r.MaxErr, r.MeanErr)
	}
	for _, p := range pairs {
		add(p.Workload, p.Eps, "static", p.Static)
		add(p.Workload, p.Eps, "adaptive", p.Adaptive)
	}
	return t, nil
}
