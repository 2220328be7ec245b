package ingest

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/sketch"
	"automon/internal/stream"
)

// groupSpec describes one differential scenario: a query over the 4×32 AMS
// source, an event stream, and the protocol config.
type groupSpec struct {
	name    string
	f       *core.Function
	events  *stream.Events
	coreCfg core.Config
}

// newSource is the differential specs' node source: a 4×32 AMS sketch.
func newSource(t testing.TB) *AMSSource {
	t.Helper()
	s, err := NewAMSSource(4, 32, 42, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runGroup drives a full pipeline over the spec's events and returns it.
func runGroup(t testing.TB, spec groupSpec, opts Options) *Pipeline {
	t.Helper()
	sources := make([]*AMSSource, spec.events.Nodes)
	for i := range sources {
		sources[i] = newSource(t)
		for _, u := range spec.events.Warm[i] {
			sources[i].Apply(u)
		}
	}
	p, err := NewPipeline(Config{F: spec.f, Core: spec.coreCfg, Sources: sources, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Init(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < spec.events.EventsPerNode(); k++ {
		for node := 0; node < spec.events.Nodes; node++ {
			evs := spec.events.PerNode[node]
			if k >= len(evs) {
				continue
			}
			if err := p.Ingest(node, evs[k]); err != nil {
				t.Fatalf("%s: ingest node %d event %d: %v", spec.name, node, k, err)
			}
		}
	}
	if n := p.Traffic().RefusedSyncs; n != 0 {
		t.Fatalf("%s: %d syncs refused by their node", spec.name, n)
	}
	return p
}

// assertIdentical demands bit-identical protocol outcomes between the
// per-event and elided pipelines: same violation log (node, per-node event
// index, kind — in order), same coordinator counters, same final estimate.
func assertIdentical(t *testing.T, spec groupSpec, ref, elided *Pipeline) {
	t.Helper()
	if !reflect.DeepEqual(ref.Log, elided.Log) {
		rl, el := ref.Log, elided.Log
		n := len(rl)
		if len(el) < n {
			n = len(el)
		}
		for i := 0; i < n; i++ {
			if rl[i] != el[i] {
				t.Fatalf("%s: violation %d differs: per-event %+v, elided %+v", spec.name, i, rl[i], el[i])
			}
		}
		t.Fatalf("%s: violation logs differ in length: per-event %d, elided %d", spec.name, len(rl), len(el))
	}
	refStats, elStats := ref.coord.Stats(), elided.coord.Stats()
	if !reflect.DeepEqual(refStats, elStats) {
		t.Fatalf("%s: coordinator stats differ:\nper-event %+v\nelided    %+v", spec.name, refStats, elStats)
	}
	if math.Float64bits(ref.Estimate()) != math.Float64bits(elided.Estimate()) {
		t.Fatalf("%s: estimates differ: per-event %v, elided %v", spec.name, ref.Estimate(), elided.Estimate())
	}
}

func diffSpecs() []groupSpec {
	const nodes = 4
	return []groupSpec{
		{
			name:    "f2-churn",
			f:       funcs.AMSF2(4, 32),
			events:  stream.SketchChurn(nodes, 400, 3000, 1),
			coreCfg: core.Config{Epsilon: 0.1},
		},
		{
			name:    "f2-bursts",
			f:       funcs.AMSF2(4, 32),
			events:  stream.SketchBursts(nodes, 400, 3000, 2),
			coreCfg: core.Config{Epsilon: 0.1},
		},
		{
			// The same quadratic through ADCD-X: zones are neighborhood-bound
			// and the budget also guards the box.
			name:    "f2-adcdx",
			f:       funcs.AMSF2(4, 32),
			events:  stream.SketchBursts(nodes, 400, 3000, 3),
			coreCfg: core.Config{Epsilon: 0.1, ForceADCDX: true, R: 0.5},
		},
		{
			// An indefinite constant Hessian, which F₂'s PSD one never is: the
			// first two sketch rows dotted with the last two.
			name:    "inner-product",
			f:       funcs.InnerProduct(64),
			events:  stream.SketchBursts(nodes, 400, 3000, 4),
			coreCfg: core.Config{Epsilon: 0.1},
		},
		{
			name:    "f2-chaos",
			f:       funcs.AMSF2(4, 32),
			events:  stream.SketchChaos(nodes, 400, 3000, 5),
			coreCfg: core.Config{Epsilon: 0.1},
		},
	}
}

// TestElisionDifferential is the harness behind the PR's headline claim:
// check elision is a pure performance optimization. For the F₂ query under
// ADCD-E and ADCD-X, an indefinite quadratic, and a chaos stream, the elided
// pipeline must reproduce the per-event pipeline's protocol outcomes
// bit-identically — no missed
// violations, no spurious ones, same syncs, same estimate.
func TestElisionDifferential(t *testing.T) {
	for _, spec := range diffSpecs() {
		t.Run(spec.name, func(t *testing.T) {
			ref := runGroup(t, spec, Options{Elide: false})
			elided := runGroup(t, spec, Options{Elide: true})
			assertIdentical(t, spec, ref, elided)
			want := core.MethodE
			if spec.coreCfg.ForceADCDX {
				want = core.MethodX
			}
			if got := elided.coord.Method(); got != want {
				t.Fatalf("%s: zones built with method %v, want %v", spec.name, got, want)
			}
			st := elided.Stats()
			if st.Elided == 0 {
				t.Fatalf("%s: elision never skipped a check (events=%d checks=%d)", spec.name, st.Events, st.Checks)
			}
			t.Logf("%s: events=%d checks=%d elided=%d (%.1f%%), violations=%d",
				spec.name, st.Events, st.Checks, st.Elided,
				100*float64(st.Elided)/float64(st.Events), len(elided.Log))
		})
	}
}

// TestPipelineRejectsMismatchedSources: a group whose sketches cannot merge
// must be refused at assembly, with the sketch package's typed error.
func TestPipelineRejectsMismatchedSources(t *testing.T) {
	f := funcs.AMSF2(4, 32)
	a, _ := NewAMSSource(4, 32, 1, 1.0/64)
	b, _ := NewAMSSource(4, 32, 2, 1.0/64) // different seed
	var mm *sketch.MismatchError
	if _, err := NewPipeline(Config{F: f, Sources: []*AMSSource{a, b}}); !errors.As(err, &mm) {
		t.Fatalf("mismatched seeds: error %v, want *sketch.MismatchError", err)
	}
	c, _ := NewAMSSource(4, 32, 1, 1.0/32) // different scale
	if _, err := NewPipeline(Config{F: f, Sources: []*AMSSource{a, c}}); err == nil {
		t.Fatal("mismatched scales accepted")
	}
	d, _ := NewAMSSource(4, 16, 1, 1.0/64) // wrong dim for f
	if _, err := NewPipeline(Config{F: f, Sources: []*AMSSource{d}}); err == nil {
		t.Fatal("source/function dim mismatch accepted")
	}
}

// TestElideRequiresCurvature: wiring elision to a function with no
// curvature bound must fail loudly, not silently run per-event.
func TestElideRequiresCurvature(t *testing.T) {
	// A non-constant-Hessian function without WithCurvature.
	d := 2 * 8
	bare := core.NewFunction("cubic-bare", d,
		func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			acc := b.Powi(x[0], 3)
			for i := 1; i < d; i++ {
				acc = b.Add(acc, b.Powi(x[i], 3))
			}
			return acc
		})
	s, _ := NewAMSSource(2, 8, 1, 1.0/100)
	if _, err := NewNodeIngestor(0, bare, s, Options{Elide: true}); err == nil {
		t.Fatal("elision without a curvature bound must be refused")
	}
	// Per-event mode needs no bound:
	if _, err := NewNodeIngestor(0, bare, s, Options{}); err != nil {
		t.Fatal(err)
	}
	// The same cubic with a declared bound, and the F₂ query's constant
	// Hessian, both allow elision:
	if _, err := NewNodeIngestor(0, bare.WithCurvature(1e3), s, Options{Elide: true}); err != nil {
		t.Fatalf("declared curvature bound must allow elision: %v", err)
	}
	if _, err := NewNodeIngestor(0, funcs.AMSF2(2, 8), s, Options{Elide: true}); err != nil {
		t.Fatalf("constant Hessian must allow elision: %v", err)
	}
}

// TestSourceConstructorValidation pins the error paths of the source
// constructor: bad scale, bad sketch shape.
func TestSourceConstructorValidation(t *testing.T) {
	for _, tc := range []struct {
		rows, cols int
		scale      float64
	}{{4, 32, 0}, {4, 32, -1}, {4, 32, math.NaN()}, {0, 32, 1}, {4, 0, 1}, {-1, 32, 1}} {
		if _, err := NewAMSSource(tc.rows, tc.cols, 1, tc.scale); err == nil {
			t.Fatalf("AMS source accepted %dx%d at scale %v", tc.rows, tc.cols, tc.scale)
		}
	}
}

// TestPipelineAccessors: after Init the pipeline exposes its coordinator and
// has counted the first sync's traffic.
func TestPipelineAccessors(t *testing.T) {
	srcs := make([]*AMSSource, 3)
	for i := range srcs {
		s, err := NewAMSSource(3, 16, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Apply(sketch.Update{Item: uint64(i), Delta: 1})
		srcs[i] = s
	}
	p, err := NewPipeline(Config{F: funcs.AMSF2(3, 16), Core: core.Config{Epsilon: 0.5}, Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Init(); err != nil {
		t.Fatal(err)
	}
	if p.coord == nil || p.coord.Estimate() != p.Estimate() {
		t.Fatal("pipeline does not expose its coordinator")
	}
	if tr := p.Traffic(); tr.Messages == 0 || tr.PayloadBytes == 0 {
		t.Fatalf("Init produced no counted traffic: %+v", tr)
	}
}

// TestNodeVectorIsTheSketch: after every event, in both modes and through
// every resolution a chaos stream causes, each node's vector is the
// materialized sketch bit for bit — the ingestor writes the cells an event
// moved with the product VectorInto computes.
func TestNodeVectorIsTheSketch(t *testing.T) {
	spec := diffSpecs()[4] // f2-chaos
	for _, opts := range []Options{{Elide: false}, {Elide: true}} {
		sources := make([]*AMSSource, spec.events.Nodes)
		for i := range sources {
			sources[i] = newSource(t)
			for _, u := range spec.events.Warm[i] {
				sources[i].Apply(u)
			}
		}
		p, err := NewPipeline(Config{F: spec.f, Core: spec.coreCfg, Sources: sources, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Init(); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, spec.f.Dim())
		for k := 0; k < spec.events.EventsPerNode(); k++ {
			for node, evs := range spec.events.PerNode {
				if err := p.Ingest(node, evs[k]); err != nil {
					t.Fatal(err)
				}
				sources[node].VectorInto(want)
				for j, x := range p.ings[node].Node().LocalVector() {
					if math.Float64bits(x) != math.Float64bits(want[j]) {
						t.Fatalf("elide %v node %d event %d cell %d: node holds %v, the sketch %v", opts.Elide, node, k, j, x, want[j])
					}
				}
			}
		}
		if len(p.Log) == 0 {
			t.Fatalf("elide %v: the stream raised no violation", opts.Elide)
		}
	}
}

// TestPullReadsCurrentSketchKeepsBudget: a data pull in mid-stream reads the
// node's current sketch and leaves its elision budget valid, so the next
// in-budget event is still elided.
func TestPullReadsCurrentSketchKeepsBudget(t *testing.T) {
	p, churn := benchPipeline(t, true)
	in := p.ings[0]
	for _, u := range churn[:101] {
		if v := in.Ingest(u); v != nil {
			t.Fatalf("churn violated: %+v", v.Kind)
		}
	}
	want := make([]float64, in.src.Dim())
	in.src.VectorInto(want)
	got := p.group.RequestData(0)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("cell %d: the pull read %v, the sketch is %v", j, got[j], want[j])
		}
	}
	if in.Node().SpendBudget(0) {
		t.Fatal("the pull invalidated the budget")
	}
	before := in.Stats().Elided
	if v := in.Ingest(churn[101]); v != nil || in.Stats().Elided != before+1 {
		t.Fatalf("the event after the pull was not elided (violation %v)", v)
	}
}
