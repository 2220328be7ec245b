package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// northStar maps every stage the ROADMAP north star names (aim 1: "the cost
// of each thing an event or a violation passes through") to the per-layer
// metrics that cover it. A stage with no metric needs an entry in
// northStarExclusions with the reason. Adding a stage to the north star
// without extending one of the two — or dropping a metric a stage relies on —
// fails TestNorthStarStagesAreCovered.
var northStar = map[string][]string{
	"sketch Apply":             {"sketch.apply_ns", "ingest.ingest_elided_ns"},
	"budget debit":             {"core.node.spend_budget_ns", "core.node.elided_share"},
	"ContainsScratch":          {"core.zone.contains_e_ns", "core.zone.contains_x_ns", "core.node.check_e_ns", "core.node.check_x_ns"},
	"message codec":            {"core.codec.encode_violation_ns", "core.codec.encode_sync_ns", "core.codec.decode_sync_ns", "core.codec.sync_bytes"},
	"frameWriter batching":     {"transport.frames_per_msg", "transport.batch_overhead_share", "transport.uplink_partial_us"},
	"dispatch queue":           {"transport.turnaround_us", "transport.shed_violations"},
	"Machine.HandleViolation":  {"core.machine.lazy_us", "core.machine.full_us", "core.flat.handle_violation_us", "shard.tree.handle_violation_us"},
	"lazy sync":                {"core.machine.lazy_us", "core.machine.lazy_attempts", "core.machine.lazy_success_share", "core.machine.pulls_per_violation"},
	"full-sync Collect":        {"core.machine.collect_us", "linalg.acc_addvec_ns_per_dim", "core.flat.full_sync_ms", "shard.tree.full_sync_ms"},
	"full-sync Distribute":     {"core.machine.distribute_us", "core.node.apply_sync_ns"},
	"zone build lbfgs":         {"core.zone.decompose_x_lbfgs_us", "core.machine.zone_build_us"},
	"zone build interval":      {"core.zone.decompose_x_interval_us"},
	"zone build hybrid":        {"core.zone.decompose_x_hybrid_us"},
	"zone build ADCD-E":        {"core.zone.decompose_e_ms"},
	"Partial encode":           {"core.codec.partial_roundtrip_ns", "core.codec.partial_bytes"},
	"Partial merge":            {"linalg.acc_mergevec_ns_per_dim", "shard.accept_partial_ns"},
	"observability (aim 4)":    {"obs.counter_inc_ns", "obs.tracer_record_ns"},
	"attribution (aim 1)":      {"attrib.unaccounted_share", "trace.overhead_share", "gen.share"},
	"violation→resolution":     {"transport.node_pre_us", "transport.turnaround_us", "transport.node_post_us", "transport.pull_service_us"},
	"bytes on the wire":        {"transport.coord_sent_bytes_per_event", "transport.coord_recv_bytes_per_event"},
	"eigen-engine inner loops": {"linalg.eigensym_ms", "autodiff.value_ns", "autodiff.grad_ns", "autodiff.hessian_us", "core.zone.eigensolves_per_build"},
}

// northStarExclusions lists stages that are deliberately not timed on their
// own, each with its reason.
var northStarExclusions = map[string]string{
	"frameWriter (direct call)": "unexported; the benchmark drives only public functions, so batching is measured at the socket boundary (frames per message, batch overhead share) and through the public SubtreeUplink, which writes through the same frameWriter",
	"dispatch queue (direct)":   "unexported goroutine inside transport.Coordinator; its wait is inside transport.turnaround_us and its overflow is transport.shed_violations; spans inside the program are a later change",
}

func perLayerNames() map[string]metricDef {
	m := make(map[string]metricDef, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = d
	}
	return m
}

func TestNorthStarStagesAreCovered(t *testing.T) {
	known := perLayerNames()
	for stage, metrics := range northStar {
		if len(metrics) == 0 {
			t.Errorf("stage %q maps to no metric; add one or move it to northStarExclusions with a reason", stage)
		}
		for _, m := range metrics {
			if _, ok := known[m]; !ok {
				t.Errorf("stage %q relies on %q, which is not a per-layer metric", stage, m)
			}
		}
	}
	for stage, why := range northStarExclusions {
		if len(strings.Fields(why)) < 5 {
			t.Errorf("exclusion %q needs a written reason", stage)
		}
	}
	// Every stage the ROADMAP sentence lists must appear, by name, in one of
	// the two maps.
	roadmap, err := os.ReadFile(filepath.Join("..", "ROADMAP.md"))
	if err != nil {
		t.Skipf("no ROADMAP.md beside the benchmark: %v", err)
	}
	for phrase, stage := range map[string]string{
		"sketch `Apply`":            "sketch Apply",
		"budget debit":              "budget debit",
		"`ContainsScratch`":         "ContainsScratch",
		"message codec":             "message codec",
		"`frameWriter` batching":    "frameWriter batching",
		"dispatch":                  "dispatch queue",
		"`Machine.HandleViolation`": "Machine.HandleViolation",
		"lazy sync":                 "lazy sync",
		"`Collect`/`Distribute`":    "full-sync Collect",
		"zone build per":            "zone build lbfgs",
		"`Partial`":                 "Partial encode",
	} {
		if !strings.Contains(string(roadmap), phrase) {
			continue // the north star was re-anchored; the maps above are then the record
		}
		if _, ok := northStar[stage]; !ok {
			t.Errorf("ROADMAP names %s but no stage %q is registered", phrase, stage)
		}
	}
}

// TestRegistryMatchesMetricTable: every per-layer metric sourced from the
// registry has exactly one registry entry, and the other way round.
func TestRegistryMatchesMetricTable(t *testing.T) {
	inRegistry := map[string]bool{}
	for _, e := range registry {
		if inRegistry[e.metric] {
			t.Errorf("registry lists %s twice", e.metric)
		}
		inRegistry[e.metric] = true
		if e.batch < 1 || e.per <= 0 {
			t.Errorf("registry entry %s has batch %d, per %g", e.metric, e.batch, e.per)
		}
	}
	for _, name := range registrySizes {
		inRegistry[name] = true
	}
	for _, d := range perLayer {
		if (d.src == "R") != inRegistry[d.name] {
			t.Errorf("%s: src %q but in registry = %v", d.name, d.src, inRegistry[d.name])
		}
		delete(inRegistry, d.name)
	}
	for name := range inRegistry {
		t.Errorf("registry entry %s is not a per-layer metric", name)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json and the program's tables
// name the same workloads and metrics with the same units, directions and
// bounds; smoke_test.go checks that a run emits exactly these.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		name(d.name)
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 || !unitRE.MatchString(d.unit) {
			t.Errorf("%s: bound %g, unit %q", d.name, d.bound, d.unit)
		}
		// --compare never judges more loosely than the driver does.
		if d.tight <= 0 || d.tight > d.bound {
			t.Errorf("%s: compare bound %g, driver bound %g", d.name, d.tight, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program has %d", len(bj.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
	}
	if len(bj.Paths) != 1 || strings.Trim(bj.Paths[0], "/") != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

// TestOnlyTheAdapterImportsTheRepo: sut.go is the one file that may import
// automon/internal/..., so the surface later changes must keep is in one
// place.
func TestOnlyTheAdapterImportsTheRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if strings.HasPrefix(path, "automon") && file != "sut.go" {
				t.Errorf("%s imports %s; only sut.go may call into the repository", file, path)
			}
			// ROADMAP item 2 marks these for deletion; the benchmark must
			// not depend on them.
			if file == "sut.go" && (strings.HasSuffix(path, "/sim") || strings.HasSuffix(path, "/oracle")) {
				t.Errorf("sut.go imports %s, a run driver ROADMAP item 2 collapses", path)
			}
		}
	}
	src, err := os.ReadFile("sut.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"DisableEvalMemo:", "UsePowerIteration:", "ForceADCDX:", "ZoneCacheSize:", "SharedZoneCache:", "ZoneCacheScope:", "ZoneCacheQuantum:"} {
		if strings.Contains(string(src), banned) {
			t.Errorf("sut.go sets %s which ROADMAP item 2 marks for deletion", strings.TrimSuffix(banned, ":"))
		}
	}
}
