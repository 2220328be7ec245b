// Package obs is the repository's dependency-free observability layer:
// counters, gauges, and histograms with atomic hot paths, a structured
// protocol-event tracer, and plaintext HTTP exposition (Prometheus text
// format, /debug/vars JSON, and net/http/pprof).
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, or *Tracer are no-ops. A nil *Registry hands out live,
// unregistered instruments, so the protocol packages (internal/core,
// internal/transport, internal/sim, internal/shard) always count through real
// counters, with or without a registry: their test-visible Stats structs are
// views over the same instruments. Only the optional extras (event tracing,
// the HTTP server) are disabled by default.
//
// Metric names follow the Prometheus convention: a base name, optionally
// followed by a {label="value",...} suffix that is carried verbatim into the
// exposition. Two registrations with the same full name share one
// instrument, which is what makes a registry scrape and a Stats snapshot
// structurally unable to diverge.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// create counters with NewCounter or Registry.Counter. A nil Counter is a
// valid no-op sink.
type Counter struct {
	v atomic.Int64
}

// NewCounter creates a standalone (unregistered) counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Load returns the current count. Load on a nil counter returns 0.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (a level, not a count). A nil
// Gauge is a valid no-op sink.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge creates a standalone (unregistered) gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative ≤-bound buckets, Prometheus
// style, plus a running sum and count. All updates are atomic; a nil
// Histogram is a valid no-op sink.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram creates a standalone histogram over the given ascending
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metricKind tags a registry entry for exposition.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("metricKind(%d)", uint8(k))
}

type metric struct {
	name string // full name including any {labels} suffix
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// baseName strips the {labels} suffix from a full metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labels returns the label suffix without braces ("" when unlabelled).
func labels(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name[i+1:], "}")
	}
	return ""
}

// LabeledName merges a rendered extra label set into a metric name that may
// or may not already carry labels:
//
//	LabeledName(`automon_x_total`, `group="1"`)              → automon_x_total{group="1"}
//	LabeledName(`automon_x_total{kind="a"}`, `group="1"`)    → automon_x_total{kind="a",group="1"}
//
// An empty extra returns the name unchanged, preserving the unlabelled
// single-tenant series names. Multi-tenant registries share one namespace,
// so the coordinator's and the shard tier's series carry the same labels.
func LabeledName(name, extra string) string {
	if extra == "" {
		return name
	}
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + extra + "}"
	}
	return name + "{" + extra + "}"
}

// Registry holds named instruments for exposition. Registration is
// get-or-create: asking twice for the same full name returns the same
// instrument. All methods are safe for concurrent use; a nil *Registry
// hands out live instruments that no registry lists, so "registry or
// standalone" needs no branch at any call site.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) lookupOrAdd(name, help string, kind metricKind, make_ func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			// Handing back the mismatched entry would give the caller a nil
			// instrument that counts nothing while the scrape shows the
			// other kind — exactly the Stats/scrape divergence this registry
			// exists to rule out. A registration conflict is a programming
			// error, so fail loudly.
			panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as a %s", name, m.kind, kind))
		}
		return m
	}
	m := make_()
	m.name, m.help, m.kind = name, help, kind
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter registered under name (with optional
// {label="v"} suffix), creating it on first use. A nil registry returns a
// new standalone counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return NewCounter()
	}
	return r.lookupOrAdd(name, help, kindCounter, func() *metric {
		return &metric{counter: NewCounter()}
	}).counter
}

// RegisterCounter exposes an existing counter under name. If the name is
// already taken the existing registration wins and the counter is NOT
// replaced (the caller keeps its handle; the scrape shows the first one).
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.lookupOrAdd(name, help, kindCounter, func() *metric {
		return &metric{counter: c}
	})
}

// Gauge returns the gauge registered under name, creating it on first use.
// A nil registry returns a new standalone gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return NewGauge()
	}
	return r.lookupOrAdd(name, help, kindGauge, func() *metric {
		return &metric{gauge: NewGauge()}
	}).gauge
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (later bounds are ignored). A nil
// registry returns a new standalone histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	return r.lookupOrAdd(name, help, kindHistogram, func() *metric {
		return &metric{hist: NewHistogram(bounds)}
	}).hist
}

// snapshotMetrics copies the ordered metric list under the lock.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.ordered...)
}

// Snapshot returns the current value of every instrument, keyed by full
// name. Histograms contribute name_count and name_sum entries. A nil
// registry returns an empty map.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	for _, m := range r.snapshotMetrics() {
		switch m.kind {
		case kindCounter:
			out[m.name] = float64(m.counter.Load())
		case kindGauge:
			out[m.name] = m.gauge.Load()
		case kindHistogram:
			base, lb := baseName(m.name), labels(m.name)
			suffix := ""
			if lb != "" {
				suffix = "{" + lb + "}"
			}
			out[base+"_count"+suffix] = float64(m.hist.Count())
			out[base+"_sum"+suffix] = m.hist.Sum()
		}
	}
	return out
}

// formatValue renders a float the way Prometheus expects (integers without
// an exponent, +Inf as "+Inf").
func formatValue(v float64) string {
	//automon:allow nofloateq exact integrality test chooses the integer rendering; both branches are correct
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// mergeLabels joins an existing label set with an extra label.
func mergeLabels(existing, extra string) string {
	if existing == "" {
		return "{" + extra + "}"
	}
	return "{" + existing + "," + extra + "}"
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4). HELP/TYPE headers are emitted
// once per base name, so labelled variants of one metric group correctly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	seenHeader := make(map[string]bool)
	header := func(base, help string, kind metricKind) string {
		if seenHeader[base] {
			return ""
		}
		seenHeader[base] = true
		typ := "counter"
		switch kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", base, help, base, typ)
	}
	for _, m := range r.snapshotMetrics() {
		base := baseName(m.name)
		if _, err := io.WriteString(w, header(base, m.help, m.kind)); err != nil {
			return err
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Load()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", m.name, formatValue(m.gauge.Load())); err != nil {
				return err
			}
		case kindHistogram:
			lb := labels(m.name)
			cum := int64(0)
			for i, bound := range m.hist.bounds {
				cum += m.hist.buckets[i].Load()
				le := mergeLabels(lb, fmt.Sprintf("le=%q", formatValue(bound)))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le, cum); err != nil {
					return err
				}
			}
			cum += m.hist.buckets[len(m.hist.bounds)].Load()
			le := mergeLabels(lb, `le="+Inf"`)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, le, cum); err != nil {
				return err
			}
			suffix := ""
			if lb != "" {
				suffix = "{" + lb + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatValue(m.hist.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, m.hist.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonValue renders a float for the JSON exposition. JSON has no literal for
// non-finite numbers, so NaN/±Inf become null rather than breaking parsers.
func jsonValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return formatValue(v)
}

// WriteJSON renders the registry as a flat JSON object (the /debug/vars
// payload), keyed by full metric name.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, n := range names {
		sep := ",\n"
		if i == len(names)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "  %q: %s%s", n, jsonValue(snap[n]), sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
