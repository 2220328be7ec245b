// Package ingest is the high-throughput event path of the sketch-backed
// monitoring story (§5 of the paper, ROADMAP item 2): each node holds an
// AMS sketch as its AutoMon local vector and folds raw
// turnstile events into it at millions of events per second, while the
// safe-zone machinery of internal/core decides — via the check-elision
// budget — which events actually need an exact O(d) constraint check. On
// drift-within-zone streams almost none do, so the amortized per-event cost
// is one hash, one counter add, and one budget subtraction.
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
// a constant factor, that absorbs turnstile updates and materializes the
// monitored vector on demand. Each event touches exactly one counter per row
// by ±delta, so the scaled vector moves by exactly |delta|·scale·√rows — the
// O(1) per-event norm the elision budget spends.
type AMSSource struct {
	sk          *sketch.AMS
	scale       float64
	normPerUnit float64 // scale·√rows
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
	return &AMSSource{sk: sk, scale: scale, normPerUnit: scale * math.Sqrt(float64(rows))}, nil
}

// Apply folds one event into the sketch.
func (s *AMSSource) Apply(u sketch.Update) { s.sk.Add(u.Item, u.Delta) }

// UpdateNorm is the exact L2 movement of the scaled vector for applying u.
func (s *AMSSource) UpdateNorm(u sketch.Update) float64 {
	return math.Abs(u.Delta) * s.normPerUnit
}

// Dim is the monitored vector length.
func (s *AMSSource) Dim() int { return s.sk.Dim() }

// VectorInto materializes the current monitored vector into dst
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
	// Node.UpdateData — the per-event baseline the differential harness and
	// the headline benchmark compare against.
	Elide bool
}

// Stats counts one ingestor's traffic.
type Stats struct {
	Events uint64 // events folded into the sketch
	Checks uint64 // exact safe-zone checks run
	Elided uint64 // events whose check was skipped under budget
}

// NodeIngestor drives one node's monitoring loop from raw events: fold the
// event into the sketch, spend its norm from the elision budget, and run the
// exact check only when the budget demands one.
type NodeIngestor struct {
	src   *AMSSource
	node  *core.Node
	vec   []float64 // materialization scratch
	elide bool
	stats Stats
}

// NewNodeIngestor wires a source to a fresh monitoring node for f. With
// Options.Elide it fails when f exposes no curvature bound (see
// Function.CurvBound) rather than silently running per-event.
func NewNodeIngestor(id int, f *core.Function, src *AMSSource, opts Options) (*NodeIngestor, error) {
	if src.Dim() != f.Dim() {
		return nil, fmt.Errorf("ingest: source dim %d, function %s dim %d", src.Dim(), f.Name, f.Dim())
	}
	node := core.NewNode(id, f)
	if opts.Elide && !node.EnableElision() {
		return nil, fmt.Errorf("ingest: function %s has no curvature bound; check elision unavailable (use WithCurvature or a constant-Hessian query)", f.Name)
	}
	return &NodeIngestor{src: src, node: node, vec: make([]float64, f.Dim()), elide: opts.Elide}, nil
}

// Ingest folds one event into the node's sketch and returns a Violation when
// the (exact) safe-zone check fails, nil otherwise — including when the
// check was provably unnecessary and elided.
//
//automon:hotpath
func (in *NodeIngestor) Ingest(u sketch.Update) *core.Violation {
	in.stats.Events++
	in.src.Apply(u)
	if in.elide && !in.node.SpendBudget(in.src.UpdateNorm(u)) {
		in.stats.Elided++
		return nil
	}
	return in.exactCheck()
}

// exactCheck materializes the vector and runs the full constraint check,
// refreshing the elision budget on a pass.
func (in *NodeIngestor) exactCheck() *core.Violation {
	in.stats.Checks++
	in.src.VectorInto(in.vec)
	if in.elide {
		return in.node.UpdateDataRefresh(in.vec)
	}
	return in.node.UpdateData(in.vec)
}

// materialize pushes the current sketch state into the node without a
// constraint check — the coordinator is about to read the vector (data
// pull), so the node's view must be current. Resets the budget: the next
// event re-checks exactly.
func (in *NodeIngestor) materialize() {
	in.src.VectorInto(in.vec)
	in.node.SetData(in.vec)
}

// Node exposes the underlying monitoring node.
func (in *NodeIngestor) Node() *core.Node { return in.node }

// Stats returns a snapshot of the ingestor's counters.
func (in *NodeIngestor) Stats() Stats { return in.stats }
