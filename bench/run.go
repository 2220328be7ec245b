package main

import (
	"fmt"
	"math"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	scale   float64
	traced  bool
	laps    int    // tests: run this many laps (at least minLaps) and ignore seconds
	outDir  string // where a traced run writes its trace file
}

// traceDir is where the command writes trace files.
const traceDir = "bench/out"

// runResult is what one invocation reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Scale     float64                `json:"scale"`
	Nodes     int                    `json:"nodes"`
	PerNode   int                    `json:"events_per_node_per_lap"`
	Laps      int                    `json:"laps"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    int                    `json:"checkpoints"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

const (
	// minLaps: every median needs something to choose from, and a traced run
	// needs a traced lap after its untraced first one.
	minLaps = 2
	// extraSetups is how many set-up-only cycles follow the laps. Set-up takes
	// 5 to 70 ms, so its median needs more samples than there are laps.
	extraSetups = 20
)

// runWorkload runs laps until --seconds have passed (at least two laps, so
// every median has something to choose from) and folds them into the
// reported metrics.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := cfg.w
	nodes, perNode := w.sized(cfg.scale)
	out := &runResult{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Scale: cfg.scale,
		Nodes: nodes, PerNode: perNode, Metrics: map[string]metricValue{},
	}

	// A short unreported lap first: heap sizing, page faults and the
	// scheduler's first contact with the drivers belong to the process, not
	// to any lap.
	if _, err := runLap(w, nodes, max(perNode/10, 2*checksPerLap), cfg.seed, false); err != nil {
		return nil, fmt.Errorf("warm-up lap: %w", err)
	}

	// fleet-tree64 carries its own reference: one unmeasured lap of the same
	// input on the flat coordinator. Routing mode is bit-identical to flat,
	// so every tree lap must reproduce its message count, full-sync count
	// and final estimate bit for bit.
	var ref *lapResult
	if w.topo == topoTree64 {
		flat := *w
		flat.topo = topoFlat
		r, err := runLap(&flat, nodes, perNode, cfg.seed, false)
		if err != nil {
			return nil, fmt.Errorf("flat reference lap: %w", err)
		}
		ref = r
	}

	var laps []*lapResult
	oneLap := func(traced bool) error {
		lap, err := runLap(w, nodes, perNode, cfg.seed, traced)
		if err != nil {
			return fmt.Errorf("lap %d: %w", len(laps), err)
		}
		if ref != nil {
			if lap.msgs != ref.msgs || lap.proto.FullSyncs != ref.proto.FullSyncs ||
				math.Float64bits(lap.estimate) != math.Float64bits(ref.estimate) {
				lap.failf("tree lap differs from flat: msgs %d vs %d, full syncs %d vs %d, estimate %x vs %x",
					lap.msgs, ref.msgs, lap.proto.FullSyncs, ref.proto.FullSyncs,
					math.Float64bits(lap.estimate), math.Float64bits(ref.estimate))
			}
		}
		laps = append(laps, lap)
		return nil
	}
	start := time.Now()
	enough := func() bool {
		if cfg.laps > 0 {
			return len(laps) >= max(cfg.laps, minLaps)
		}
		return len(laps) >= minLaps && time.Since(start).Seconds() >= cfg.seconds
	}
	for !enough() {
		// A traced run's first lap stays untraced, and so does one more after
		// its last: they are the reference the tracing overhead is measured
		// against, one on each side so that a drifting machine cancels.
		if err := oneLap(cfg.traced && len(laps) > 0); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		if err := oneLap(false); err != nil {
			return nil, err
		}
	}

	// Set-up is short next to a lap, so a few more samples of it are cheap.
	var extraSetup []int64
	if !cfg.traced {
		for i := 0; i < extraSetups; i++ {
			ns, err := setupOnly(w, nodes, perNode, cfg.seed)
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
			extraSetup = append(extraSetup, ns)
		}
	}

	out.Laps = len(laps)
	for _, lap := range laps {
		out.Attempted += lap.events
		out.Failed += lap.failed
		out.Checks += lap.checks
		if len(out.Failures) < maxFailureLines {
			out.Failures = append(out.Failures, lap.failures...)
		}
	}
	if cfg.traced {
		if err := layerMetrics(cfg, out, laps); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(out, w, laps, extraSetup)
	}
	return out, nil
}

// endToEndMetrics folds the laps into the nine reported numbers. Counts are
// the median lap's. Times are the median lap's too over sockets, with the
// latencies pooled over all laps; a fleet's come from its composite lap.
func endToEndMetrics(out *runResult, w *workload, laps []*lapResult, extraSetup []int64) {
	var setup, eps, msgs, wire, cpu, allocs, heap []float64
	var resolve []int64
	for _, lap := range laps {
		ev := float64(lap.events)
		setup = append(setup, float64(lap.setupNs)/1e9)
		eps = append(eps, ev/(float64(lap.wallNs)/1e9))
		msgs = append(msgs, float64(lap.msgs)/ev)
		wire = append(wire, float64(lap.wire)/ev)
		cpu = append(cpu, float64(lap.cpuNs)/1e3/ev)
		allocs = append(allocs, float64(lap.mallocs)/ev)
		heap = append(heap, float64(lap.heapLive)/(1<<20))
		resolve = append(resolve, lap.resolve...)
	}
	for _, ns := range extraSetup {
		setup = append(setup, float64(ns)/1e9)
	}
	vals := map[string]float64{
		"setup_s":              medianF(setup),
		"events_per_s":         medianF(eps),
		"msgs_per_event":       medianF(msgs),
		"wire_bytes_per_event": medianF(wire),
		"cpu_us_per_event":     medianF(cpu),
		"allocs_per_event":     medianF(allocs),
		"heap_live_mib":        medianF(heap),
	}
	if !w.sock {
		var wallNs, cpuNs int64
		wallNs, cpuNs, resolve = compositeLap(laps)
		ev := float64(laps[0].events)
		vals["events_per_s"] = ev / (float64(wallNs) / 1e9)
		vals["cpu_us_per_event"] = float64(cpuNs) / 1e3 / ev
	}
	sorted := sortedCopy(resolve)
	vals["resolve_p50_ms"] = quantile(sorted, 0.50) / 1e6
	vals["resolve_p95_ms"] = quantile(sorted, 0.95) / 1e6
	for _, d := range endToEnd {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	out.Notes = append(out.Notes, fmt.Sprintf("resolve samples: %d, p99 %.6g ms (reported, not a metric of this run: see resolve.p99_ms)",
		len(sorted), quantile(sorted, 0.99)/1e6))
}

// compositeLap assembles one fleet lap out of the run's laps. A fleet lap is
// a pure function of the seed, and driver 0 stamps the same 16 rounds of
// every lap, so slice s of one lap is the same work as slice s of another,
// down to the last message. For every slice the composite keeps the fastest
// execution: its time, the least process CPU, and the coordinator-call
// durations sampled during the fastest one. With the work identical, what
// differs between two executions of a slice is what disturbed them — on this
// host a busy neighbour, for minutes at a time — and that only ever makes one
// slower, so the fastest of several is the least disturbed; a cost the code
// itself adds is in every execution and stays. Socket laps are not the same
// work slice for slice (which violation reaches the coordinator first depends
// on the schedule), so the fastest of their slices would be the luckiest, not
// the least disturbed, and they keep the median lap.
func compositeLap(laps []*lapResult) (wallNs, cpuNs int64, resolve []int64) {
	for s := range laps[0].slices {
		best := laps[0]
		leastCPU := best.slices[s].cpuNs
		for _, lap := range laps[1:] {
			if lap.slices[s].wallNs < best.slices[s].wallNs {
				best = lap
			}
			leastCPU = min(leastCPU, lap.slices[s].cpuNs)
		}
		wallNs += best.slices[s].wallNs
		cpuNs += leastCPU
		from := 0
		if s > 0 {
			from = best.slices[s-1].samples
		}
		resolve = append(resolve, best.resolve[from:best.slices[s].samples]...)
	}
	return wallNs, cpuNs, resolve
}
