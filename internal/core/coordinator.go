package core

import (
	"errors"

	"automon/internal/obs"
)

// DefaultThresholdFloor is the minimum half-width of the (L, U) interval
// under Multiplicative error: when ε·|f(x0)| falls below it, thresholds become
// f(x0) ∓ DefaultThresholdFloor. It guards the f(x0) ≈ 0 degeneracy: purely
// multiplicative bounds collapse to a zero-width interval there, and every
// subsequent update becomes a violation (a sync storm). The floor is small
// enough not to perturb any realistically scaled threshold.
const DefaultThresholdFloor = 1e-9

// ErrNoLiveNodes is returned by sync operations when every node is marked
// dead. It is a degraded-but-recoverable state, not a fatal one: the
// coordinator keeps its last estimate and repairs itself on the next rejoin.
var ErrNoLiveNodes = errors.New("core: no live nodes")

// ErrorType selects the approximation semantics used to set thresholds from
// f(x0) and ε (§2).
type ErrorType uint8

const (
	// Additive: L = f(x0) − ε, U = f(x0) + ε.
	Additive ErrorType = iota
	// Multiplicative: L, U = (1 ∓ ε)·f(x0), ordered correctly for negative
	// values of f(x0).
	Multiplicative
)

// Config configures a Coordinator.
type Config struct {
	// Epsilon is the approximation error bound ε.
	Epsilon float64
	// ErrorType selects additive (default) or multiplicative approximation.
	ErrorType ErrorType
	// R is the ADCD-X neighborhood radius. Use Tune (tuning.go) to pick it
	// automatically; ignored for ADCD-E and the no-ADCD ablation.
	R float64
	// DisableADCD switches to the §4.6 ablation: the admissible region is
	// used directly as the (generally non-convex) local constraint.
	DisableADCD bool
	// ForceADCDX monitors a constant-Hessian function with ADCD-X anyway;
	// used by tests and the ablation benches.
	ForceADCDX bool
	// DisableSlack zeroes all slack vectors. Disabling slack also disables
	// lazy sync, matching the paper's ablation.
	DisableSlack bool
	// DisableLazySync resolves every safe-zone violation with a full sync.
	DisableLazySync bool
	// RDoubleAfter is the number of consecutive neighborhood violations
	// (with no intervening safe-zone violations) after which r is doubled.
	// 0 means the paper default of 5n.
	RDoubleAfter int
	// RMax caps the neighborhood radius: §3.6 doublings (and adaptive
	// re-tunes) clamp to it, so a sustained violation storm can no longer
	// grow r without bound — unbounded doubling eventually overflows the
	// zone-cache quantizer and, under the interval eigen-engine, widens
	// Hessian enclosures toward Entire. 0 derives a default (the domain
	// diameter when finite, else 1024× the starting radius); negative
	// disables the cap. Clamped doublings are counted in
	// automon_coordinator_r_saturations_total.
	RMax float64
	// AdaptiveR enables the drift-aware radius controller: EWMAs of the
	// violation mix, full-sync rate and eigen-engine build cost trigger
	// background Algorithm-2 re-brackets over a window of recent full-sync
	// snapshots, and the re-tuned radius — which can *shrink* as well as
	// grow — is swapped in at the next full sync. Only meaningful for
	// ADCD-X; on a drift-free stream the controller never triggers and the
	// run is bit-identical to a static one. See radius.go.
	AdaptiveR bool
	// AdaptiveAlpha is the controller's per-violation EWMA decay in (0, 1].
	// 0 means DefaultAdaptiveAlpha, the value the drift-free bit-identity
	// guarantee is pinned at; the recorded bursty-stream comparison
	// (results/adaptive.csv) runs the more responsive 0.2.
	AdaptiveAlpha float64
	// Decomp configures the ADCD-X eigenvalue search. Its worker count
	// (Decomp.Workers) also sizes the waves Tune replays radii in.
	Decomp DecompOptions
	// ZoneCacheSize bounds the coordinator's private LRU cache of ADCD-X
	// decompositions, keyed by the (x0, r) of each full sync quantized at
	// zoneCacheQuantum. A full sync whose key matches a cached entry
	// reuses the Lemma-1 curvature bounds and skips the eigenvalue search;
	// f0, ∇f0 and the thresholds are always recomputed exactly for the true
	// x0, and the §3.7 sanity check guards the reused bounds exactly as it
	// guards the optimizer's local optima. 0 disables the cache (default).
	ZoneCacheSize int
	// MetricsLabels, when non-empty, is a rendered label set (e.g.
	// `group="2"`) merged into every coordinator metric name registered in
	// Metrics. A multi-tenant process uses it to keep per-group series
	// apart in one shared registry; the zero value preserves the unlabeled
	// single-tenant names.
	MetricsLabels string
	// Metrics, when set, registers the coordinator's protocol counters in
	// this registry so they are scraped by the obs HTTP endpoints. When nil
	// the coordinator keeps private (unregistered) counters; Stats() reads
	// the same instruments either way, so the two views cannot diverge.
	Metrics *obs.Registry
	// Tracer, when set, records structured protocol events (violations,
	// syncs, r-doublings, deaths, rejoins). Nil disables tracing at the cost
	// of a single nil check per event.
	Tracer *obs.Tracer
	// ZoneBuilder, when set, replaces ADCD entirely with a hand-crafted safe
	// zone (used to plug GM baselines such as Convex Bound into the same
	// protocol). Such zones are delivered to nodes in-memory.
	ZoneBuilder func(f *Function, x0 []float64, l, u float64) *SafeZone
}

// Detached returns the copy of c that a machine subordinate to the configured
// one runs with: a tuning or re-tuning probe replay, or a shard leaf's
// absorb machine. It keeps the protocol settings and drops everything that
// belongs to the monitored deployment itself: instruments become private (a
// shared registry's get-or-create counters would otherwise accumulate every
// probe's violations into the caller's series, and into each other's), the
// radius controller is off (a probe must hold its candidate r fixed, and a
// controller inside a replay would re-tune recursively) and so is the zone
// cache.
func (c Config) Detached() Config {
	c.Metrics, c.Tracer, c.MetricsLabels = nil, nil, ""
	c.Decomp.EigsolveCounter, c.Decomp.OptEvalCounter = nil, nil
	c.AdaptiveR = false
	c.ZoneCacheSize = 0
	return c
}

// NodeComm abstracts the coordinator→node side of the messaging fabric. The
// simulation counts calls as messages; the transport layer sends real bytes.
// RequestData accounts for a DataRequest and its DataResponse. A fabric with
// failure detection may return nil from RequestData to signal that the node
// is unreachable (after calling MarkDead on the coordinator); the coordinator
// then keeps its last known vector for that node and excludes it from the
// estimate until the node rejoins.
type NodeComm interface {
	RequestData(nodeID int) []float64
	SendSync(nodeID int, m *Sync)
	SendSlack(nodeID int, m *Slack)
}

// CoordStats is a point-in-time snapshot of the coordinator's protocol
// counters, as returned by Machine.Stats. The counters themselves live
// in the obs registry (see coordObs); this struct is purely a view, so the
// values tests assert on and the values a /metrics scrape reports come from
// the same instruments.
type CoordStats struct {
	FullSyncs              int
	LazyAttempts           int
	LazyResolved           int
	NeighborhoodViolations int
	SafeZoneViolations     int
	FaultyViolations       int
	RDoublings             int
	RSaturations           int
	RShrinks               int
	RGrows                 int
	AdaptiveRetunes        int
	NodeDeaths             int
	Rejoins                int
	Eigensolves            int
	ZoneCacheHits          int
	ZoneCacheMisses        int
	ZoneCacheBypasses      int
	ZoneCacheInvalidations int

	// Eigen-engine provenance: fresh ADCD-X decompositions by backend, the
	// hybrid escalations that ran the L-BFGS search, and the eigensolves
	// performed inside the search (BackendInterval keeps OptEvals at zero —
	// the counter-verified "no optimizer work" claim).
	EigBoundBuildsLBFGS    int
	EigBoundBuildsInterval int
	EigBoundBuildsHybrid   int
	HybridRefines          int
	OptEvals               int
}

// coordObs bundles the coordinator's observability instruments. Counters are
// always real (they back CoordStats); the tracer may be nil (no-op).
type coordObs struct {
	fullSyncs    *obs.Counter
	lazyAttempts *obs.Counter
	lazyResolved *obs.Counter
	neighViol    *obs.Counter
	szViol       *obs.Counter
	faultyViol   *obs.Counter
	rDoublings   *obs.Counter
	rSaturations *obs.Counter
	rShrinks     *obs.Counter
	rGrows       *obs.Counter

	adaptiveRetunes *obs.Counter
	nodeDeaths      *obs.Counter
	rejoins         *obs.Counter
	eigsolves       *obs.Counter
	zcHits          *obs.Counter
	zcMisses        *obs.Counter
	zcBypasses      *obs.Counter
	zcInvalidated   *obs.Counter
	ebLBFGS         *obs.Counter
	ebInterval      *obs.Counter
	ebHybrid        *obs.Counter
	ebRefines       *obs.Counter
	ebOptEvals      *obs.Counter

	liveNodes *obs.Gauge
	radius    *obs.Gauge
	estimate  *obs.Gauge
	ewmaNeigh *obs.Gauge
	ewmaSZ    *obs.Gauge
	ewmaSync  *obs.Gauge
	ewmaCost  *obs.Gauge
	lazySet   *obs.Histogram

	tracer *obs.Tracer
}

// newCoordObs creates the instruments, registered in reg when non-nil. With
// a nil registry the counters are standalone: same cost, just unscraped.
// A non-empty labels set (Config.MetricsLabels) is merged into every series
// name so multiple coordinators can share one registry.
func newCoordObs(reg *obs.Registry, tracer *obs.Tracer, labels string) coordObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	name := func(n string) string { return obs.LabeledName(n, labels) }
	const violHelp = "protocol violations handled by the coordinator, by kind"
	const eigboundHelp = "fresh ADCD-X decompositions built, by eigen-engine backend"
	return coordObs{
		fullSyncs:    reg.Counter(name("automon_coordinator_full_syncs_total"), "full synchronizations performed"),
		lazyAttempts: reg.Counter(name("automon_coordinator_lazy_sync_attempts_total"), "lazy-sync balancing attempts"),
		lazyResolved: reg.Counter(name("automon_coordinator_lazy_syncs_resolved_total"), "safe-zone violations resolved without a full sync"),
		neighViol:    reg.Counter(name(`automon_coordinator_violations_total{kind="neighborhood"}`), violHelp),
		szViol:       reg.Counter(name(`automon_coordinator_violations_total{kind="safe_zone"}`), violHelp),
		faultyViol:   reg.Counter(name(`automon_coordinator_violations_total{kind="faulty"}`), violHelp),
		rDoublings:   reg.Counter(name("automon_coordinator_r_doublings_total"), "§3.6 neighborhood-size doublings"),
		rSaturations: reg.Counter(name("automon_coordinator_r_saturations_total"), "§3.6 doublings clamped by the RMax radius cap"),
		rShrinks:     reg.Counter(name(`automon_coordinator_adaptive_r_swaps_total{dir="shrink"}`), "adaptive radius swaps applied at a full sync, by direction"),
		rGrows:       reg.Counter(name(`automon_coordinator_adaptive_r_swaps_total{dir="grow"}`), "adaptive radius swaps applied at a full sync, by direction"),

		adaptiveRetunes: reg.Counter(name("automon_coordinator_adaptive_retunes_total"), "background Algorithm-2 re-brackets that staged a new radius"),
		nodeDeaths:      reg.Counter(name("automon_coordinator_node_deaths_total"), "nodes marked dead by the fabric"),
		rejoins:         reg.Counter(name("automon_coordinator_rejoins_total"), "nodes re-admitted after a death"),
		eigsolves:       reg.Counter(name("automon_coordinator_eigensolves_total"), "eigensolver evaluations performed by the ADCD-X search"),
		zcHits:          reg.Counter(name("automon_coordinator_zone_cache_hits_total"), "full syncs that reused a cached ADCD-X decomposition"),
		zcMisses:        reg.Counter(name("automon_coordinator_zone_cache_misses_total"), "full syncs that ran the eigenvalue search with the zone cache enabled"),
		zcBypasses:      reg.Counter(name("automon_coordinator_zone_cache_bypasses_total"), "full syncs that skipped the zone cache because (x0, r) could not be quantized soundly"),
		zcInvalidated:   reg.Counter(name("automon_coordinator_zone_cache_invalidations_total"), "cached decompositions dropped because the neighborhood radius changed"),
		ebLBFGS:         reg.Counter(name(`automon_coordinator_eigbound_builds_total{backend="lbfgs"}`), eigboundHelp),
		ebInterval:      reg.Counter(name(`automon_coordinator_eigbound_builds_total{backend="interval"}`), eigboundHelp),
		ebHybrid:        reg.Counter(name(`automon_coordinator_eigbound_builds_total{backend="hybrid"}`), eigboundHelp),
		ebRefines:       reg.Counter(name("automon_coordinator_eigbound_hybrid_refines_total"), "hybrid eigen-engine escalations that ran the L-BFGS search on top of the interval certificate"),
		ebOptEvals:      reg.Counter(name("automon_coordinator_eigbound_opt_evals_total"), "eigensolver evaluations performed inside the L-BFGS search (zero under the interval backend)"),
		liveNodes:       reg.Gauge(name("automon_coordinator_live_nodes"), "nodes currently considered reachable"),
		radius:          reg.Gauge(name("automon_coordinator_neighborhood_radius"), "current ADCD-X neighborhood size r"),
		estimate:        reg.Gauge(name("automon_coordinator_estimate"), "current approximation of f over the live-node average"),
		ewmaNeigh:       reg.Gauge(name(`automon_coordinator_violation_mix_ewma{kind="neighborhood"}`), "EWMA share of recent violations, by kind (adaptive radius controller)"),
		ewmaSZ:          reg.Gauge(name(`automon_coordinator_violation_mix_ewma{kind="safe_zone"}`), "EWMA share of recent violations, by kind (adaptive radius controller)"),
		ewmaSync:        reg.Gauge(name("automon_coordinator_full_sync_rate_ewma"), "EWMA share of recent violations resolved by a full sync (adaptive radius controller)"),
		ewmaCost:        reg.Gauge(name("automon_coordinator_eigbound_cost_ewma"), "EWMA eigensolver evaluations per fresh ADCD-X zone build (adaptive radius controller)"),
		lazySet:         reg.Histogram(name("automon_coordinator_balancing_set_size"), "nodes pulled into each resolved lazy sync", []float64{1, 2, 4, 8, 16, 32, 64}),
		tracer:          tracer,
	}
}

// eigboundBuilds returns the fresh-decomposition counter for a backend.
func (o *coordObs) eigboundBuilds(b EigBackend) *obs.Counter {
	switch b {
	case BackendInterval:
		return o.ebInterval
	case BackendHybrid:
		return o.ebHybrid
	}
	return o.ebLBFGS
}

// Coordinator is the flat (single-tier) AutoMon coordinator: the protocol
// state machine (Machine) over one Partition holding all n nodes, routed over
// a direct NodeComm fabric. A sharded deployment cuts the same table into one
// Partition per leaf (internal/shard); the machine, and therefore the
// protocol, is byte-for-byte the same code.
type Coordinator struct {
	*Machine
	own Partition
}

// NewCoordinator creates a coordinator for n nodes over function f. The
// monitoring method is chosen automatically: ADCD-E when the computational
// graph proves a constant Hessian, otherwise ADCD-X (or the no-ADCD ablation
// when configured).
func NewCoordinator(f *Function, n int, cfg Config, comm NodeComm) *Coordinator {
	c := &Coordinator{own: NewPartition(f.Dim(), 0, n, comm)}
	c.Machine = NewMachine(f, n, cfg, &c.own)
	c.own.Bind(c.Machine)
	return c
}
