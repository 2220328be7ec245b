package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	tr.Record(EventFullSync, 0, 1, "")
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 || tr.Total() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	// A nil registry hands out live instruments that nothing lists.
	rc, rg, rh := r.Counter("x", ""), r.Gauge("x", ""), r.Histogram("x", "", []float64{1})
	rc.Add(2)
	rg.Set(3)
	rh.Observe(0.5)
	if rc.Load() != 2 || rg.Load() != 3 || rh.Count() != 1 || rh.Sum() != 0.5 {
		t.Fatal("nil registry must hand out live instruments")
	}
	if r.Counter("x", "") == rc {
		t.Fatal("nil registry must not share instruments between calls")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(`msgs_total{side="node"}`, "messages")
	b := r.Counter(`msgs_total{side="node"}`, "messages")
	if a != b {
		t.Fatal("same full name must return the same counter")
	}
	other := r.Counter(`msgs_total{side="coord"}`, "messages")
	if other == a {
		t.Fatal("distinct label sets must be distinct counters")
	}
	a.Add(3)
	if b.Load() != 3 {
		t.Fatalf("shared counter reads %d, want 3", b.Load())
	}
}

// TestLabeledName pins the one label merge every tier's series go through:
// plain names gain a label block, labelled names gain a trailing label, and
// an empty label set leaves the single-tenant name untouched.
func TestLabeledName(t *testing.T) {
	for _, tc := range []struct{ name, extra, want string }{
		{"automon_x_total", "", "automon_x_total"},
		{`automon_x_total{kind="a"}`, "", `automon_x_total{kind="a"}`},
		{"automon_x_total", `group="1"`, `automon_x_total{group="1"}`},
		{`automon_x_total{kind="a"}`, `group="1"`, `automon_x_total{kind="a",group="1"}`},
		{`automon_x_total{kind="a",dir="b"}`, `group="1",run="2"`, `automon_x_total{kind="a",dir="b",group="1",run="2"}`},
	} {
		if got := LabeledName(tc.name, tc.extra); got != tc.want {
			t.Errorf("LabeledName(%q, %q) = %q, want %q", tc.name, tc.extra, got, tc.want)
		}
	}
}

func TestCountersAreConcurrencySafe(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("concurrent_total", "")
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.05)
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-workers*per*0.05) > 1e-6 {
		t.Fatalf("histogram sum = %v", h.Sum())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`automon_syncs_total{kind="full"}`, "syncs by kind").Add(7)
	r.Counter(`automon_syncs_total{kind="lazy"}`, "syncs by kind").Add(2)
	r.Gauge("automon_radius", "neighborhood radius").Set(0.25)
	h := r.Histogram("automon_set_size", "balancing set", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE automon_syncs_total counter",
		`automon_syncs_total{kind="full"} 7`,
		`automon_syncs_total{kind="lazy"} 2`,
		"# TYPE automon_radius gauge",
		"automon_radius 0.25",
		"# TYPE automon_set_size histogram",
		`automon_set_size_bucket{le="1"} 1`,
		`automon_set_size_bucket{le="4"} 2`,
		`automon_set_size_bucket{le="+Inf"} 3`,
		"automon_set_size_sum 104",
		"automon_set_size_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once per base name even with labels.
	if n := strings.Count(out, "# TYPE automon_syncs_total"); n != 1 {
		t.Fatalf("TYPE header emitted %d times, want 1", n)
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(4)
	r.Gauge("b", "").Set(-1.5)
	r.Histogram("c_seconds", "", []float64{1}).Observe(0.5)

	snap := r.Snapshot()
	if snap["a_total"] != 4 || snap["b"] != -1.5 || snap["c_seconds_count"] != 1 || snap["c_seconds_sum"] != 0.5 {
		t.Fatalf("snapshot = %v", snap)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if decoded["a_total"] != 4 {
		t.Fatalf("JSON a_total = %v", decoded["a_total"])
	}
}

func TestWriteJSONNonFiniteValues(t *testing.T) {
	// JSON has no literal for NaN/Inf; a poisoned gauge must render as null
	// instead of breaking every /debug/vars consumer.
	r := NewRegistry()
	r.Gauge("nan_gauge", "").Set(math.NaN())
	r.Gauge("inf_gauge", "").Set(math.Inf(1))
	r.Gauge("neg_inf_gauge", "").Set(math.Inf(-1))
	r.Gauge("ok", "").Set(2.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]*float64
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON with non-finite gauges is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, name := range []string{"nan_gauge", "inf_gauge", "neg_inf_gauge"} {
		if decoded[name] != nil {
			t.Fatalf("%s should render as null, got %v", name, *decoded[name])
		}
	}
	if decoded["ok"] == nil || *decoded["ok"] != 2.5 {
		t.Fatalf("finite value mangled:\n%s", buf.String())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	// Handing a counter registration back to a gauge request would yield a
	// nil instrument and silently fork the caller onto an unregistered
	// standalone one — the exact Stats/scrape divergence the registry rules
	// out — so the conflict must fail loudly.
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting x_total as a gauge after registering it as a counter must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestTracerRingRetainsNewest(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Record(EventViolation, i, float64(i), "safe_zone")
	}
	if tr.Total() != 40 {
		t.Fatalf("total = %d, want 40", tr.Total())
	}
	events := tr.Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want 16", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(24 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d has seq %d, want %d (oldest-first order)", i, e.Seq, wantSeq)
		}
	}
	if events[len(events)-1].Node != 39 {
		t.Fatal("newest event missing")
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(EventFrameSent, 0, 1, "sync")
			}
		}()
	}
	wg.Wait()
	if tr.Total() != 2000 {
		t.Fatalf("total = %d, want 2000", tr.Total())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("automon_http_test_total", "endpoint test").Add(11)
	tr := NewTracer(16)
	tr.Record(EventFullSync, -1, 3, "")

	srv, err := Serve("127.0.0.1:0", r, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "automon_http_test_total 11") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	var vars map[string]float64
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars["automon_http_test_total"] != 11 {
		t.Fatalf("/debug/vars = %v", vars)
	}
	var events []Event
	if err := json.Unmarshal([]byte(get("/debug/events")), &events); err != nil {
		t.Fatalf("/debug/events not JSON: %v", err)
	}
	if len(events) != 1 || events[0].Kind != EventFullSync {
		t.Fatalf("/debug/events = %+v", events)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Fatal("/debug/pprof/ index missing")
	}
}
