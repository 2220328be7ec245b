package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

var alwaysPositive = map[string]bool{
	"setup_s": true, "events_per_s": true, "cpu_us_per_event": true, "heap_live_mib": true,
}

// TestSmokeAllWorkloads runs every workload at a hundredth of its size,
// untraced and traced, with the correctness checkpoints on, and checks that
// each run emits exactly the metrics BENCHMARK.json promises.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{w: w, seed: 7, scale: 0.01, traced: traced, laps: 2, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: failed_ops = %d: %v", w.name, traced, res.Failed, res.Failures)
			}
			laps := 2
			if traced {
				laps = 3 // one more untraced reference lap after the last
			}
			if res.Checks != laps*checksPerLap {
				t.Errorf("%s traced=%v: %d checkpoints, want %d", w.name, traced, res.Checks, laps*checksPerLap)
			}
			nodes, perNode := w.sized(0.01)
			if want := int64(laps * nodes * perNode); res.Attempted != want {
				t.Errorf("%s traced=%v: attempted %d events, want %d", w.name, traced, res.Attempted, want)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
					continue
				}
				if m.Unit != d.unit {
					t.Errorf("%s %s: unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				}
				// At a hundredth of its size a workload may raise no violation
				// at all, so only what every run has is required to be
				// positive here; the full-size runs report all nine non-zero.
				if !traced && alwaysPositive[d.name] && !(m.Value > 0) {
					t.Errorf("%s %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				continue
			}
			// The quiet workload's fast path is allocation-free; the few
			// allocations per event that remain come from its rare
			// violations. The race runtime allocates on its own.
			if w.name == "quiet-sock" && !raceEnabled {
				if a := res.Metrics["allocs_per_event"].Value; a > 2 {
					t.Errorf("quiet-sock allocates %.2f objects per event; the elided path should allocate none", a)
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke took %v; it must stay under 15 s", d)
	}
}

// TestTreeMatchesFlat pins what fleet-tree64 asserts on every run: the
// routing tree reproduces the flat coordinator's message count, full-sync
// count and final estimate bit for bit on the same input.
func TestTreeMatchesFlat(t *testing.T) {
	flat, tree := findWorkload("fleet-flat"), findWorkload("fleet-tree64")
	nodes, perNode := flat.sized(0.02)
	a, err := runLap(flat, nodes, perNode, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLap(tree, nodes, perNode, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.msgs == 0 || a.proto.FullSyncs == 0 {
		t.Fatalf("vacuous: %d messages, %d full syncs", a.msgs, a.proto.FullSyncs)
	}
	if a.msgs != b.msgs || a.wire != b.wire || a.proto != b.proto || a.estimate != b.estimate {
		t.Errorf("tree differs from flat: msgs %d/%d bytes %d/%d proto %+v/%+v estimate %v/%v",
			a.msgs, b.msgs, a.wire, b.wire, a.proto, b.proto, a.estimate, b.estimate)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	mk := func(vals ...float64) *series {
		s := &series{Values: vals}
		s.Q1, s.Median, s.Q3 = quartiles(vals)
		return s
	}
	storm, fleet := findWorkload("storm-sock"), findWorkload("fleet-flat")
	lower := metricDef{name: "latency", better: "lower", tight: 0.10}
	higher := metricDef{name: "rate", better: "higher", tight: 0.10}
	scoped := metricDef{name: "latency", better: "lower", tight: 0.10, judged: blocking}
	msgs := metricDef{name: "msgs_per_event", better: "lower", tight: 0.03}
	setup := metricDef{name: "setup_s", better: "lower", tight: 0.25}
	base := mk(100, 101, 99, 100, 102)
	for _, c := range []struct {
		w    *workload
		d    metricDef
		a, b *series
		want string
	}{
		{storm, lower, base, mk(100, 100, 101, 99, 100), "same"},
		{storm, lower, base, mk(120, 121, 119, 120, 122), "worse"},
		{storm, lower, base, mk(80, 81, 79, 80, 82), "better"},
		{storm, higher, base, mk(80, 81, 79, 80, 82), "worse"},
		{storm, higher, base, mk(120, 121, 119, 120, 122), "better"},
		{storm, lower, base, mk(60, 140, 100, 90, 130), "unresolved"},
		{storm, scoped, base, mk(120, 121, 119, 120, 122), "worse"},
		{fleet, scoped, base, mk(120, 121, 119, 120, 122), "not judged"},
		// A fleet's message count repeats exactly or the protocol changed; over
		// sockets it has its 3 %.
		{fleet, msgs, mk(1.5, 1.5, 1.5), mk(1.5, 1.5, 1.5), "same"},
		{fleet, msgs, mk(1.5, 1.5, 1.5), mk(1.501, 1.501, 1.501), "worse"},
		{fleet, msgs, mk(1.5, 1.5, 1.5), mk(1.5, 1.5, 1.501), "unresolved"},
		{storm, msgs, mk(1.5, 1.5, 1.5), mk(1.501, 1.501, 1.501), "same"},
		// 7 ms → 20 ms is inside the 50 ms floor; 0.5 s → 0.7 s is not.
		{storm, setup, mk(0.007, 0.007, 0.007), mk(0.020, 0.020, 0.020), "same"},
		{storm, setup, mk(0.5, 0.5, 0.5), mk(0.7, 0.7, 0.7), "worse"},
	} {
		if got, _, _ := verdict(c.w, c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %s %v vs %v: verdict %s, want %s", c.w.name, c.d.name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}

// TestCompositeLapKeepsFastestSlices: per slice the fastest execution's time
// and samples, and the least CPU, whichever lap they come from.
func TestCompositeLapKeepsFastestSlices(t *testing.T) {
	laps := []*lapResult{
		{slices: []lapSlice{{wallNs: 10, cpuNs: 7, samples: 2}, {wallNs: 30, cpuNs: 20, samples: 3}}, resolve: []int64{1, 2, 3}},
		{slices: []lapSlice{{wallNs: 12, cpuNs: 5, samples: 1}, {wallNs: 25, cpuNs: 22, samples: 4}}, resolve: []int64{4, 5, 6, 7}},
	}
	wall, cpu, resolve := compositeLap(laps)
	if wall != 35 || cpu != 25 {
		t.Errorf("wall %d cpu %d, want 35 and 25", wall, cpu)
	}
	if want := []int64{1, 2, 5, 6, 7}; !slices.Equal(resolve, want) {
		t.Errorf("samples %v, want %v", resolve, want)
	}
}
