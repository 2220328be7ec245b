package ingest

import (
	"math"
	"reflect"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/core"
	"automon/internal/sketch"
	"automon/internal/stream"
)

// groupSpec describes one differential scenario: a query, a source factory,
// an event stream, and the protocol config.
type groupSpec struct {
	name      string
	f         *core.Function
	newSource func() Source
	events    *stream.Events
	coreCfg   core.Config
}

// runGroup drives a full pipeline over the spec's events and returns it.
func runGroup(t testing.TB, spec groupSpec, opts Options) *Pipeline {
	t.Helper()
	sources := make([]Source, spec.events.Nodes)
	for i := range sources {
		sources[i] = spec.newSource()
	}
	for i, s := range sources {
		for _, u := range spec.events.Warm[i] {
			s.Apply(u)
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
	refStats, elStats := ref.Coordinator().Stats(), elided.Coordinator().Stats()
	if !reflect.DeepEqual(refStats, elStats) {
		t.Fatalf("%s: coordinator stats differ:\nper-event %+v\nelided    %+v", spec.name, refStats, elStats)
	}
	if math.Float64bits(ref.Estimate()) != math.Float64bits(elided.Estimate()) {
		t.Fatalf("%s: estimates differ: per-event %v, elided %v", spec.name, ref.Estimate(), elided.Estimate())
	}
}

// insertOnly flips every delta to +1, for substrates (Count-Min entropy)
// whose domain excludes negative counters.
func insertOnly(e *stream.Events) *stream.Events {
	for i := range e.Warm {
		for k := range e.Warm[i] {
			e.Warm[i][k].Delta = 1
		}
	}
	for i := range e.PerNode {
		for k := range e.PerNode[i] {
			e.PerNode[i][k].Delta = 1
		}
	}
	return e
}

func diffSpecs(t testing.TB) []groupSpec {
	const nodes = 4
	specs := []groupSpec{
		{
			name: "f2-churn",
			f:    sketch.F2Query(4, 32),
			newSource: func() Source {
				s, err := NewAMSSource(4, 32, 42, 1.0/64)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			events:  stream.SketchChurn(nodes, 400, 3000, 1),
			coreCfg: core.Config{Epsilon: 0.1},
		},
		{
			name: "f2-bursts",
			f:    sketch.F2Query(4, 32),
			newSource: func() Source {
				s, err := NewAMSSource(4, 32, 42, 1.0/64)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			events:  stream.SketchBursts(nodes, 400, 3000, 2),
			coreCfg: core.Config{Epsilon: 0.1},
		},
		{
			name: "cm-entropy",
			f:    sketch.EntropyQuery(3, 16, 0.05),
			newSource: func() Source {
				s, err := NewCMSource(3, 16, 7, 1.0/3400)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			events:  insertOnly(stream.SketchBursts(nodes, 400, 3000, 3)),
			coreCfg: core.Config{Epsilon: 0.05, R: 0.2},
		},
		{
			name: "inner-product",
			f:    sketch.InnerProductQuery(4, 32),
			newSource: func() Source {
				s, err := NewPairSource(4, 32, 9, 1.0/64)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			events:  stream.PairedSketchEvents(nodes, 400, 3000, 4),
			coreCfg: core.Config{Epsilon: 0.1},
		},
		{
			name: "f2-chaos",
			f:    sketch.F2Query(4, 32),
			newSource: func() Source {
				s, err := NewAMSSource(4, 32, 42, 1.0/64)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			events:  stream.SketchChaos(nodes, 400, 3000, 5),
			coreCfg: core.Config{Epsilon: 0.1},
		},
	}
	return specs
}

// TestElisionDifferential is the harness behind the PR's headline claim:
// check elision is a pure performance optimization. For every bundled sketch
// query and a chaos stream, the elided pipeline must reproduce the
// per-event pipeline's protocol outcomes bit-identically — no missed
// violations, no spurious ones, same syncs, same estimate.
func TestElisionDifferential(t *testing.T) {
	for _, spec := range diffSpecs(t) {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			ref := runGroup(t, spec, Options{Elide: false})
			elided := runGroup(t, spec, Options{Elide: true})
			assertIdentical(t, spec, ref, elided)
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

// TestElisionBatchCap: the staleness cap forces extra exact checks but must
// not change protocol outcomes (forced checks land on in-budget events,
// which are proven non-violations).
func TestElisionBatchCap(t *testing.T) {
	// cm-entropy elides the longest runs, so a small cap visibly binds.
	spec := diffSpecs(t)[2]
	ref := runGroup(t, spec, Options{Elide: false})
	capped := runGroup(t, spec, Options{Elide: true, BatchSize: 4})
	assertIdentical(t, spec, ref, capped)
	uncapped := runGroup(t, spec, Options{Elide: true})
	if capped.Stats().Checks <= uncapped.Stats().Checks {
		t.Fatalf("batch cap 4 should force more checks than the default cap (%d vs %d)",
			capped.Stats().Checks, uncapped.Stats().Checks)
	}
}

// TestPipelineRejectsMismatchedSources: a group whose sketches cannot merge
// must be refused at assembly, with the sketch package's typed error.
func TestPipelineRejectsMismatchedSources(t *testing.T) {
	f := sketch.F2Query(4, 32)
	a, _ := NewAMSSource(4, 32, 1, 1.0/64)
	b, _ := NewAMSSource(4, 32, 2, 1.0/64) // different seed
	if _, err := NewPipeline(Config{F: f, Sources: []Source{a, b}}); err == nil {
		t.Fatal("mismatched seeds accepted")
	}
	c, _ := NewAMSSource(4, 32, 1, 1.0/32) // different scale
	if _, err := NewPipeline(Config{F: f, Sources: []Source{a, c}}); err == nil {
		t.Fatal("mismatched scales accepted")
	}
	cm, _ := NewCMSource(4, 32, 1, 1.0/64)
	if _, err := NewPipeline(Config{F: f, Sources: []Source{a, cm}}); err == nil {
		t.Fatal("mixed source types accepted")
	}
	d, _ := NewAMSSource(4, 16, 1, 1.0/64) // wrong dim for f
	if _, err := NewPipeline(Config{F: f, Sources: []Source{d}}); err == nil {
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
	s, _ := NewCMSource(2, 8, 1, 1.0/100)
	if _, err := NewNodeIngestor(0, bare, s, Options{Elide: true}); err == nil {
		t.Fatal("elision without a curvature bound must be refused")
	}
	// Per-event mode needs no bound:
	if _, err := NewNodeIngestor(0, bare, s, Options{}); err != nil {
		t.Fatal(err)
	}
	// EntropyQuery ships a curvature bound, so elision works:
	f := sketch.EntropyQuery(2, 8, 0.1)
	s2, _ := NewCMSource(2, 8, 1, 1.0/100)
	if _, err := NewNodeIngestor(0, f, s2, Options{Elide: true}); err != nil {
		t.Fatalf("entropy with curvature bound must allow elision: %v", err)
	}
}

// TestSourceConstructorValidation pins the error paths of the source
// constructors (bad scale, bad sketch shape) and the accessor surface the
// experiments and baselines build on.
func TestSourceConstructorValidation(t *testing.T) {
	if _, err := NewAMSSource(4, 32, 1, 0); err == nil {
		t.Fatal("AMS source accepted zero scale")
	}
	if _, err := NewAMSSource(0, 32, 1, 1); err == nil {
		t.Fatal("AMS source accepted zero rows")
	}
	if _, err := NewCMSource(4, 32, 1, -1); err == nil {
		t.Fatal("Count-Min source accepted negative scale")
	}
	if _, err := NewCMSource(4, 0, 1, 1); err == nil {
		t.Fatal("Count-Min source accepted zero cols")
	}
	if _, err := NewPairSource(4, 32, 1, math.NaN()); err == nil {
		t.Fatal("pair source accepted NaN scale")
	}
	if _, err := NewPairSource(-1, 32, 1, 1); err == nil {
		t.Fatal("pair source accepted negative rows")
	}

	ams, err := NewAMSSource(4, 32, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ams.Sketch() == nil || ams.Sketch().Seed() != 1 {
		t.Fatal("AMS source does not expose its sketch")
	}
	cm, err := NewCMSource(4, 32, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Sketch() == nil || cm.Sketch().Seed() != 2 {
		t.Fatal("Count-Min source does not expose its sketch")
	}
}

// TestPipelineAccessors covers the pipeline's structural accessors.
func TestPipelineAccessors(t *testing.T) {
	srcs := make([]Source, 3)
	for i := range srcs {
		s, err := NewAMSSource(3, 16, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Apply(sketch.Update{Item: uint64(i), Delta: 1})
		srcs[i] = s
	}
	f := sketch.F2Query(3, 16)
	p, err := NewPipeline(Config{F: f, Core: core.Config{Epsilon: 0.5}, Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Init(); err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 3 {
		t.Fatalf("Nodes() = %d, want 3", p.Nodes())
	}
	in := p.Ingestor(1)
	if in == nil || in.Node() == nil || in.Source() != srcs[1] {
		t.Fatal("ingestor accessors do not expose the wired node/source")
	}
	if p.Coordinator() == nil {
		t.Fatal("pipeline does not expose its coordinator")
	}
	if tr := p.Traffic(); tr.Messages == 0 || tr.PayloadBytes == 0 {
		t.Fatalf("Init produced no counted traffic: %+v", tr)
	}
}
