package core

import (
	"math"

	"automon/internal/obs"
)

// The paper tunes the ADCD-X neighborhood size r̂ once, on a data prefix
// (Algorithm 2), and the §3.6 runtime fallback only ever *grows* it: after
// RDoubleAfter consecutive neighborhood violations r doubles. On drifting
// workloads that one-way ratchet is a latent bug — a single bursty regime
// permanently inflates r, every later zone is built over a wider box than
// the tuned optimum (looser curvature bounds, tighter safe zones, more
// violations), and under a sustained storm r doubles without bound.
//
// radiusController closes the loop: it watches exponentially weighted moving
// averages of the violation mix, the full-sync rate, and the eigen-engine
// build cost, and when the mix becomes lopsided it re-runs Algorithm 2's
// bracketing search on a window of recent full-sync snapshots (through the
// same Tune the offline tuner uses). The re-tuned radius is staged and
// swapped in at the *next* full sync — never mid-round — so the node-side
// monitoring loop keeps checking exactly the zone it was sent and the hot
// path stays allocation-free and bit-identical.
//
// On a drift-free stream the controller never triggers, so an adaptive run
// is bit-identical to a static one (asserted by TestAdaptiveDriftFreeRunIsBitIdentical).

// Controller defaults. The thresholds encode Algorithm 2's own optimality
// picture: at the tuned r̂ violations mix both kinds, at r too small
// neighborhood violations dominate, at r too large safe-zone violations do.
const (
	// adaptiveWindow is the number of full-sync snapshots retained as the
	// re-tuning window.
	adaptiveWindow = 8
	// adaptiveAlpha is the EWMA decay applied per handled violation
	// (half-life ≈ 13 violations). A faster 0.2 breaks the drift-free
	// bit-identity (TestAdaptiveDriftFreeRunIsBitIdentical).
	adaptiveAlpha = 0.05

	// adaptiveGrowEWMA triggers a re-tune when the neighborhood share of
	// recent violations exceeds it: the regime has outgrown r.
	adaptiveGrowEWMA = 0.6
	// adaptiveShrinkNeighEWMA and adaptiveShrinkViolEWMA trigger the shrink
	// side: r sits above the last tuned value, neighborhood violations have
	// vanished, and safe-zone violations (or the full syncs they force)
	// dominate — the storm that inflated r has passed.
	adaptiveShrinkNeighEWMA = 0.05
	adaptiveShrinkViolEWMA  = 0.85
	adaptiveShrinkSyncEWMA  = 0.5
	// adaptiveCostlyBuild halves the re-tune cooldown when the EWMA of
	// eigensolves per fresh zone build exceeds it: when builds are expensive
	// a better-fitted r pays for its re-tune sooner.
	adaptiveCostlyBuild = 64
	// adaptiveMinRelChange suppresses swaps within 5% of the current radius:
	// re-bracketing noise, not a regime change.
	adaptiveMinRelChange = 0.05
	// defaultRMaxFactor bounds §3.6 doubling at this multiple of the initial
	// (tuned) radius when the function has no finite domain to derive a
	// diameter from and Config.RMax is zero.
	defaultRMaxFactor = 1024
)

// radiusController is the always-on adaptivity engine. It is created only
// for ADCD-X coordinators with Config.AdaptiveR set; all fields are owned by
// the coordinator goroutine (the controller adds no locks and no clocks, so
// the determinism analyzer's constraints hold trivially).
type radiusController struct {
	m *Machine

	// alpha, window and cooldown are adaptiveAlpha, adaptiveWindow and
	// 2·RDoubleAfter handled violations between re-tune attempts (event
	// time, not wall time); fields so in-package tests can trigger a re-tune
	// within a handful of violations.
	alpha    float64
	window   int
	cooldown int

	// baseR is the most recently tuned/accepted radius: the reference the
	// shrink trigger compares against. It starts at the configured (offline
	// tuned) r and moves with every accepted re-tune.
	baseR float64

	// EWMAs over handled violations: the neighborhood share, the safe-zone
	// share, and the share resolved by a full sync; costEWMA averages
	// eigensolver evaluations per fresh ADCD-X build.
	neighEWMA, szEWMA, syncEWMA, costEWMA float64

	// violations counts handled violations since the last re-tune attempt
	// (the cooldown clock — event time, not wall time).
	violations int

	// rounds is the re-tuning window: clones of the data plane's node
	// vectors captured at each full sync, oldest first.
	rounds [][][]float64

	// pendingR is a staged radius awaiting the next full sync; 0 means none.
	pendingR float64
}

// newRadiusController wires a controller for machine m, or returns nil
// when the configuration (or monitoring method) does not call for one.
func newRadiusController(m *Machine) *radiusController {
	if !m.Cfg.AdaptiveR || m.method != MethodX {
		return nil
	}
	return &radiusController{
		m:        m,
		alpha:    adaptiveAlpha,
		window:   adaptiveWindow,
		cooldown: 2 * m.Cfg.RDoubleAfter,
		baseR:    m.r,
	}
}

// resolveRMax derives the effective doubling cap: an explicit Config.RMax
// wins; otherwise the domain diameter when finite (beyond it the box B = D
// and further growth changes nothing), otherwise defaultRMaxFactor times the
// initial radius. A negative Config.RMax disables the cap. The cap never
// sits below the configured starting radius.
func resolveRMax(cfg Config, f *Function) float64 {
	rMax := cfg.RMax
	if rMax < 0 {
		return math.MaxFloat64
	}
	if rMax == 0 {
		if diam := domainDiameter(f); diam > 0 {
			rMax = diam
		} else if cfg.R > 0 {
			rMax = cfg.R * defaultRMaxFactor
		} else {
			return math.MaxFloat64
		}
	}
	if rMax < cfg.R {
		rMax = cfg.R
	}
	return rMax
}

// domainDiameter returns the largest side of the domain box, or 0 when the
// domain is absent or unbounded in any coordinate.
func domainDiameter(f *Function) float64 {
	if f.DomainLo == nil || f.DomainHi == nil {
		return 0
	}
	diam := 0.0
	for i := range f.DomainHi {
		side := f.DomainHi[i] - f.DomainLo[i]
		if math.IsInf(side, 0) || math.IsNaN(side) {
			return 0
		}
		if side > diam {
			diam = side
		}
	}
	return diam
}

// observeViolation folds one handled violation into the EWMAs and advances
// the cooldown clock. kindNeigh/kindSZ select the violation kind; fullSync
// reports whether resolving it forced a full synchronization.
func (rc *radiusController) observeViolation(kindNeigh, kindSZ, fullSync bool) {
	rc.violations++
	rc.neighEWMA += rc.alpha * (b2f(kindNeigh) - rc.neighEWMA)
	rc.szEWMA += rc.alpha * (b2f(kindSZ) - rc.szEWMA)
	rc.syncEWMA += rc.alpha * (b2f(fullSync) - rc.syncEWMA)
	rc.m.obs.ewmaNeigh.Set(rc.neighEWMA)
	rc.m.obs.ewmaSZ.Set(rc.szEWMA)
	rc.m.obs.ewmaSync.Set(rc.syncEWMA)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// observeBuild folds the eigensolver cost of one fresh ADCD-X decomposition
// into the build-cost EWMA.
func (rc *radiusController) observeBuild(eigsolves float64) {
	rc.costEWMA += rc.alpha * (eigsolves - rc.costEWMA)
	rc.m.obs.ewmaCost.Set(rc.costEWMA)
}

// recordSnapshot captures the data plane's refreshed node vectors as one
// window round. Called at the end of every full sync, when every live
// node's vector is fresh; the ownership layer clones them in global node
// order, so a sharded tree feeds the controller the same windows a flat
// coordinator would.
func (rc *radiusController) recordSnapshot() {
	round := rc.m.own.Snapshot()
	if len(rc.rounds) >= rc.window {
		copy(rc.rounds, rc.rounds[1:])
		rc.rounds[len(rc.rounds)-1] = round
		return
	}
	rc.rounds = append(rc.rounds, round)
}

// maybeRetune checks the trigger conditions after a handled violation and,
// when they fire, re-runs Algorithm 2's bracketing search on the recent
// window. A successful search stages its radius in pendingR; the swap itself
// waits for the next full sync.
func (rc *radiusController) maybeRetune() {
	cooldown := rc.cooldown
	if rc.costEWMA > adaptiveCostlyBuild {
		cooldown /= 2
	}
	if rc.violations < cooldown || len(rc.rounds) < 2 || rc.pendingR > 0 {
		return
	}
	grow := rc.neighEWMA >= adaptiveGrowEWMA
	shrink := rc.m.r > rc.baseR &&
		rc.neighEWMA <= adaptiveShrinkNeighEWMA &&
		(rc.szEWMA >= adaptiveShrinkViolEWMA || rc.syncEWMA >= adaptiveShrinkSyncEWMA)
	if !grow && !shrink {
		return
	}
	rc.retune()
}

// retune replays the window under Algorithm 2 and stages the resulting
// radius. The replay coordinators are throwaway probes on a detached config
// (Config.Detached), so a re-tune can never recurse or inflate the monitored
// deployment's counters, and the search is bit-identical at any wave width,
// so the staged radius is deterministic.
func (rc *radiusController) retune() {
	rc.violations = 0 // restart the cooldown even when the search fails
	data := make(TuningData, len(rc.rounds))
	copy(data, rc.rounds)
	res, err := Tune(rc.m.F, data, rc.m.N, rc.m.Cfg.Detached())
	if err != nil {
		// An unconverged bracket (or a failed replay) carries no quality
		// argument; keep the current radius and let the cooldown retry on a
		// fresher window.
		rc.m.obs.tracer.Record(obs.EventRetune, -1, 0, "bracket-failed")
		return
	}
	newR := res.R
	if newR > rc.m.rMax {
		newR = rc.m.rMax
	}
	if newR <= 0 {
		return
	}
	rel := math.Abs(newR-rc.m.r) / rc.m.r
	if rel < adaptiveMinRelChange {
		rc.m.obs.tracer.Record(obs.EventRetune, -1, newR, "within-noise")
		return
	}
	rc.pendingR = newR
	rc.m.obs.adaptiveRetunes.Inc()
	rc.m.obs.tracer.Record(obs.EventRetune, -1, newR, "staged")
	// Reset the mix: the staged radius answers the regime these EWMAs
	// measured; carrying them over would re-trigger on stale evidence.
	rc.neighEWMA, rc.szEWMA, rc.syncEWMA = 0, 0, 0
}

// applyPending swaps a staged radius in at the top of a full sync, before
// the neighborhood box is derived. Returns true when the radius changed (the
// caller then drops any restored §3.6 streak: violations counted against the
// old radius say nothing about the new one).
func (rc *radiusController) applyPending() bool {
	if rc.pendingR <= 0 {
		return false
	}
	newR := rc.pendingR
	rc.pendingR = 0
	m := rc.m
	if newR < m.r {
		m.obs.rShrinks.Inc()
		m.obs.tracer.Record(obs.EventRShrink, -1, newR, "")
	} else {
		m.obs.rGrows.Inc()
		m.obs.tracer.Record(obs.EventRGrow, -1, newR, "")
	}
	m.r = newR
	rc.baseR = newR
	m.obs.radius.Set(m.r)
	return true
}
