// Package ingest is the high-throughput event path of the sketch-backed
// monitoring story (§5 of the paper, ROADMAP item 2): each node holds an
// AMS sketch as its AutoMon local vector and folds raw
// turnstile events into it at millions of events per second, while the
// safe-zone machinery of internal/core decides — via the check-elision
// budget — which events actually need an exact O(d) constraint check. On
// drift-within-zone streams almost none do, so the amortized per-event cost
// is one hash and one counter add per sketch row, and an O(rows) budget
// spend (core.Node.UpdateSparse).
//
// Protocol outcomes are bit-identical to running Node.UpdateData per event:
// elided events are *proven* in-zone by the budget (see core/budget.go and
// DESIGN.md "Check elision"), which the differential and fuzz tests in this
// package enforce.
package ingest

import (
	"fmt"
	"math"

	"automon/internal/core"
	"automon/internal/sketch"
)

// AMSSource is a node's event-to-vector substrate: one AMS sketch, scaled by
// a constant factor. An event moves one counter per row, which the ingestor
// writes into its node's vector (NodeIngestor.Ingest).
type AMSSource struct {
	sk    *sketch.AMS
	scale float64
}

// NewAMSSource builds an AMS-backed source. scale multiplies the raw
// counters into the monitored vector (nodes scale by 1/expected-updates so
// the query value stays O(1)).
func NewAMSSource(rows, cols int, seed uint64, scale float64) (*AMSSource, error) {
	if !(scale > 0) {
		return nil, fmt.Errorf("ingest: scale must be positive, got %v", scale)
	}
	sk, err := sketch.NewAMS(rows, cols, seed)
	if err != nil {
		return nil, err
	}
	return &AMSSource{sk: sk, scale: scale}, nil
}

// Apply folds one event into a sketch no NodeIngestor is wired to yet.
func (s *AMSSource) Apply(u sketch.Update) { s.sk.Add(u.Item, u.Delta) }

// Dim is the monitored vector length.
func (s *AMSSource) Dim() int { return s.sk.Dim() }

// VectorInto writes the current monitored vector into dst
// (len(dst) == Dim()).
func (s *AMSSource) VectorInto(dst []float64) {
	raw := s.sk.Vector()
	for i, v := range raw {
		dst[i] = v * s.scale
	}
}

// compatibleWith vets a peer before both are wired into one monitoring
// group: mismatched hash families or scales would silently corrupt the
// averaged vector.
func (s *AMSSource) compatibleWith(t *AMSSource) error {
	if math.Float64bits(s.scale) != math.Float64bits(t.scale) {
		return fmt.Errorf("ingest: AMS sources disagree on scale (%v vs %v)", s.scale, t.scale)
	}
	return s.sk.Compatible(t.sk)
}

// Options configures a node's ingestion path.
type Options struct {
	// Elide enables safe-zone check elision. Off, every event pays an exact
	// check — the per-event baseline the differential harness and the
	// headline benchmark compare against.
	Elide bool
}

// Stats counts one ingestor's traffic.
type Stats struct {
	Events uint64 // events folded into the sketch
	Checks uint64 // exact safe-zone checks run
	Elided uint64 // events whose check was skipped under budget
}

// NodeIngestor drives one node's monitoring loop from raw events: fold the
// event into the sketch and hand the cells it moved to the node's sparse
// step, so the node's vector equals VectorInto's output, bit for bit.
type NodeIngestor struct {
	src   *AMSSource
	node  *core.Node
	idx   []int     // the cells the last event moved, one per sketch row
	vals  []float64 // their scaled values
	stats Stats
}

// NewNodeIngestor wires a source to a fresh monitoring node for f, loaded
// with the source's current vector; from then on only Ingest may advance the
// source. With Options.Elide it fails when f exposes no curvature bound (see
// Function.CurvBound) rather than silently running per-event.
func NewNodeIngestor(id int, f *core.Function, src *AMSSource, opts Options) (*NodeIngestor, error) {
	if src.Dim() != f.Dim() {
		return nil, fmt.Errorf("ingest: source dim %d, function %s dim %d", src.Dim(), f.Name, f.Dim())
	}
	node := core.NewNode(id, f)
	if opts.Elide && !node.EnableElision() {
		return nil, fmt.Errorf("ingest: function %s has no curvature bound; check elision unavailable (use WithCurvature or a constant-Hessian query)", f.Name)
	}
	x := make([]float64, f.Dim())
	src.VectorInto(x)
	node.SetData(x)
	return &NodeIngestor{src: src, node: node, idx: make([]int, src.sk.Rows), vals: make([]float64, src.sk.Rows)}, nil
}

// Ingest folds one event into the node's sketch and returns a Violation when
// the (exact) safe-zone check fails, nil otherwise — including when the
// check was provably unnecessary and elided.
//
//automon:hotpath
func (in *NodeIngestor) Ingest(u sketch.Update) *core.Violation {
	in.stats.Events++
	in.src.sk.AddTouched(u.Item, u.Delta, in.idx)
	raw := in.src.sk.Vector()
	for r, i := range in.idx {
		in.vals[r] = raw[i] * in.src.scale
	}
	v, skipped := in.node.UpdateSparse(in.idx, in.vals)
	if skipped {
		in.stats.Elided++
	} else {
		in.stats.Checks++
	}
	return v
}

// Node exposes the underlying monitoring node.
func (in *NodeIngestor) Node() *core.Node { return in.node }

// Stats returns a snapshot of the ingestor's counters.
func (in *NodeIngestor) Stats() Stats { return in.stats }
