package main

// registry.go is the fixed layer registry: micro-timings of public functions
// of single layers, one entry per per-layer metric whose source is "R". A new
// layer cannot ship unbenched quietly: registry_test.go requires every stage
// the ROADMAP north star names to map to a registered metric or to a written
// exclusion.

import (
	"fmt"
	"sort"
	"time"
)

// regEntry is one registry timing.
type regEntry struct {
	metric string
	// batch is how many calls one timed sample covers; nanosecond-scale
	// calls are timed in batches so the clock does not dominate.
	batch int
	// per divides the per-call time into the reported unit: 1 for ns, 1e3
	// for µs, 1e6 for ms, and the vector length for per-dimension entries.
	per float64
}

var registry = []regEntry{
	{"ingest.ingest_elided_ns", 64, 1},
	{"ingest.ingest_exact_ns", 16, 1},
	{"core.node.spend_budget_ns", 256, 1},
	{"core.node.check_e_ns", 16, 1},
	{"core.node.check_x_ns", 16, 1},
	{"core.node.apply_sync_ns", 16, 1},
	{"core.zone.contains_e_ns", 16, 1},
	{"core.zone.contains_x_ns", 16, 1},
	{"core.codec.encode_violation_ns", 16, 1},
	{"core.codec.encode_sync_ns", 16, 1},
	{"core.codec.decode_sync_ns", 16, 1},
	{"core.codec.partial_roundtrip_ns", 4, 1},
	{"transport.uplink_partial_us", 1, 1e3},
	{"core.zone.decompose_x_lbfgs_us", 1, 1e3},
	{"core.zone.decompose_x_interval_us", 1, 1e3},
	{"core.zone.decompose_x_hybrid_us", 1, 1e3},
	{"core.zone.decompose_e_ms", 1, 1e6},
	{"linalg.acc_addvec_ns_per_dim", 4, sketchRows * sketchCols},
	{"linalg.acc_mergevec_ns_per_dim", 4, sketchRows * sketchCols},
	{"linalg.acc_round_ns", 64, 1},
	{"linalg.eigensym_ms", 1, 1e6},
	{"autodiff.value_ns", 16, 1},
	{"autodiff.grad_ns", 16, 1},
	{"autodiff.hessian_us", 1, 1e3},
	{"shard.accept_partial_ns", 64, 1},
	{"obs.counter_inc_ns", 256, 1},
	{"obs.tracer_record_ns", 64, 1},
}

// registrySizes are the registry's byte-valued entries (not timings).
var registrySizes = []string{"core.codec.sync_bytes", "core.codec.partial_bytes"}

// Each entry is timed until it has made regCalls calls or used regBudget,
// whichever comes first, but never fewer than regMinSamples samples: the
// decompositions cost milliseconds a call and get a handful, everything else
// gets its thousand.
const (
	regCalls      = 1000
	regBudget     = 120 * time.Millisecond
	regMinSamples = 3
)

// runRegistry times every entry and returns metric → value in its unit. A
// scale below 1 shrinks the time budget with the workloads (tests).
func runRegistry(seed int64, scale float64) (map[string]float64, error) {
	budget, maxCalls := regBudget, regCalls
	if scale < 1 {
		budget = time.Duration(float64(regBudget) * scale)
		maxCalls = max(int(regCalls*scale), 1)
	}
	fx, err := newFixtures(seed)
	if err != nil {
		return nil, fmt.Errorf("registry fixtures: %w", err)
	}
	defer fx.close()
	out := make(map[string]float64, len(registry)+len(registrySizes))
	for _, e := range registry {
		op := fx.op(e.metric)
		if op == nil {
			return nil, fmt.Errorf("registry entry %s has no timed body", e.metric)
		}
		var samples []float64
		calls := 0
		start := time.Now()
		for len(samples) < regMinSamples || (calls < maxCalls && time.Since(start) < budget) {
			t0 := time.Now()
			counts, err := op(e.batch)
			if err != nil {
				return nil, fmt.Errorf("registry entry %s: %w", e.metric, err)
			}
			d := time.Since(t0)
			calls += e.batch
			if counts {
				samples = append(samples, float64(d.Nanoseconds())/float64(e.batch)/e.per)
			} else if time.Since(start) > 10*regBudget {
				return nil, fmt.Errorf("registry entry %s: no batch counted", e.metric)
			}
		}
		sort.Float64s(samples)
		out[e.metric] = samples[len(samples)/2]
	}
	for _, name := range registrySizes {
		out[name] = fx.size(name)
	}
	return out, nil
}
