package ingest

import (
	"fmt"

	"automon/internal/core"
	"automon/internal/sketch"
)

// LogEntry records one protocol-visible event for the differential
// harnesses: which node raised a violation, at which per-node event index,
// and of which kind. Two runs with identical logs (and identical
// coordinator stats) took identical protocol actions.
type LogEntry struct {
	Node int
	Seq  uint64 // per-node event count at the violation (1-based)
	Kind core.ViolationKind
}

// Config assembles a sketch-backed monitoring group.
type Config struct {
	F       *core.Function
	Core    core.Config
	Sources []*AMSSource // one per node; must be mutually compatible
	Options Options
}

// Traffic counts the protocol messages a distributed deployment of this
// group would place on the network, with their encoded payload sizes.
// Messages flow only on protocol events (violations, data pulls, syncs,
// slack updates) — never on the per-event ingest path.
type Traffic struct {
	Messages     int
	PayloadBytes int
	// RefusedSyncs counts syncs a node could not check and refused; anything
	// but zero voids the run (the coordinator believes the zone installed).
	RefusedSyncs int
}

// Pipeline is the end-to-end in-process group: per-node ingestors and a
// coordinator over the shared core.Group fabric. It is the ingestion
// counterpart of sim.Run — events in, protocol actions and estimates out.
type Pipeline struct {
	coord   *core.Coordinator
	group   *core.Group
	ings    []*NodeIngestor
	traffic Traffic
	scratch []byte // reused encoding, measured and dropped

	// Log accumulates every violation in arrival order.
	Log []LogEntry
}

// NewPipeline validates the group (source/function shapes, mutual sketch
// compatibility) and wires ingestors to a coordinator. Warm the sources with
// their initial events first: each node loads its source's vector here.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.F == nil || len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("ingest: pipeline requires a function and at least one source")
	}
	for _, s := range cfg.Sources[1:] {
		if err := cfg.Sources[0].compatibleWith(s); err != nil {
			return nil, err
		}
	}
	p := &Pipeline{group: &core.Group{}}
	for i, s := range cfg.Sources {
		in, err := NewNodeIngestor(i, cfg.F, s, cfg.Options)
		if err != nil {
			return nil, err
		}
		p.ings = append(p.ings, in)
		p.group.Nodes = append(p.group.Nodes, in.node)
	}
	p.group.OnMessage = func(m core.Message) {
		p.traffic.Messages++
		p.scratch = m.AppendBinary(p.scratch[:0])
		p.traffic.PayloadBytes += len(p.scratch)
	}
	p.coord = core.NewCoordinator(cfg.F, len(cfg.Sources), cfg.Core, p.group)
	return p, nil
}

// Init performs the first full sync from the sources' current state.
func (p *Pipeline) Init() error { return p.group.Start(p.coord) }

// Ingest feeds one event to one node and lets the coordinator resolve any
// resulting violation.
func (p *Pipeline) Ingest(node int, u sketch.Update) error {
	in := p.ings[node]
	v := in.Ingest(u)
	if v == nil {
		return nil
	}
	p.Log = append(p.Log, LogEntry{Node: node, Seq: in.stats.Events, Kind: v.Kind})
	return p.group.Resolve(v)
}

// Traffic returns the message/byte counters accumulated so far.
func (p *Pipeline) Traffic() Traffic {
	t := p.traffic
	t.RefusedSyncs = p.group.RefusedSyncs
	return t
}

// Estimate returns the coordinator's current approximation of f(x̄).
func (p *Pipeline) Estimate() float64 { return p.coord.Estimate() }

// Stats sums the per-node ingestion counters.
func (p *Pipeline) Stats() Stats {
	var total Stats
	for _, in := range p.ings {
		s := in.Stats()
		total.Events += s.Events
		total.Checks += s.Checks
		total.Elided += s.Elided
	}
	return total
}
