package experiments

import (
	"fmt"
	"math"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/ingest"
	"automon/internal/stream"
)

// sketchShape resolves the Options sketch shape (default 4×32).
func (o Options) sketchShape() (rows, cols int) {
	rows, cols = o.SketchRows, o.SketchCols
	if rows <= 0 {
		rows = 4
	}
	if cols <= 0 {
		cols = 32
	}
	return rows, cols
}

// SketchF2Workload is the registry entry ("sketch-f2") for the sim and
// distributed tools: the AMS second-moment query over a Zipf turnstile
// stream, monitored as a quadratic form with ADCD-E.
func SketchF2Workload(o Options, nodes, rounds int) *Workload {
	rows, cols := o.sketchShape()
	return &Workload{
		Name:   fmt.Sprintf("sketch-f2-%dx%d", rows, cols),
		tel:    o.Telemetry,
		F:      funcs.AMSF2(rows, cols),
		Data:   stream.ZipfTurnstile(nodes, o.rounds(rounds), rows, cols, o.Seed+10),
		Decomp: o.decomp(core.DecompOptions{Seed: o.Seed}),
	}
}

// sketchRun aggregates one ingestion-layer run for SketchTable.
type sketchRun struct {
	algorithm       string
	period          int // periodic only; 0 for AutoMon
	messages        int
	payloadBytes    int
	checks          int
	elidedPct       float64
	maxErr, meanErr float64
}

// SketchTable is the ingestion-layer comparison behind the PR's headline:
// AutoMon monitoring the sketch (per-event and with check elision) against
// periodic sketch shipping at a ladder of periods, over the same bursty
// turnstile event stream. For each run it reports protocol traffic and the
// estimate's error against the true f of the averaged sketch, sampled after
// every node-major event step. The periodic row matching the elided run's
// accuracy (smallest max error ≥ bar) is marked as the equal-accuracy pick —
// the communication factor between the two is the figure's takeaway.
func SketchTable(o Options) (*Table, error) {
	rows, cols := o.sketchShape()
	const nodes = 8
	events, warm := 12000, 600
	if o.Quick {
		events, warm = 3000, 400
	}
	const eps = 0.1
	ev := stream.SketchEpisodes(nodes, warm, events, o.Seed+11)
	scale := 1.0 / float64(warm)
	f := funcs.AMSF2(rows, cols)
	d := f.Dim()

	newSources := func() ([]ingest.Source, error) {
		srcs := make([]ingest.Source, nodes)
		for i := range srcs {
			s, err := ingest.NewAMSSource(rows, cols, 42, scale)
			if err != nil {
				return nil, err
			}
			for _, u := range ev.Warm[i] {
				s.Apply(u)
			}
			srcs[i] = s
		}
		return srcs, nil
	}

	// errTracker folds |est − truth| sampled once per node-major step.
	type errTracker struct {
		maxErr, sumErr float64
		steps          int
	}
	observe := func(tr *errTracker, est, truth float64) {
		e := math.Abs(est - truth)
		if e > tr.maxErr {
			tr.maxErr = e
		}
		tr.sumErr += e
		tr.steps++
	}
	truthOf := func(srcs []ingest.Source, vec, avg []float64) float64 {
		for j := range avg {
			avg[j] = 0
		}
		for _, s := range srcs {
			s.VectorInto(vec)
			for j := range avg {
				avg[j] += vec[j]
			}
		}
		for j := range avg {
			avg[j] /= float64(len(srcs))
		}
		return f.Value(avg)
	}

	runAutoMon := func(elide bool) (sketchRun, error) {
		srcs, err := newSources()
		if err != nil {
			return sketchRun{}, err
		}
		p, err := ingest.NewPipeline(ingest.Config{
			F:       f,
			Core:    core.Config{Epsilon: eps},
			Sources: srcs,
			Options: ingest.Options{Elide: elide, BatchSize: o.IngestBatch},
		})
		if err != nil {
			return sketchRun{}, err
		}
		if err := p.Init(); err != nil {
			return sketchRun{}, err
		}
		vec := make([]float64, d)
		avg := make([]float64, d)
		var tr errTracker
		for k := 0; k < ev.EventsPerNode(); k++ {
			for i := 0; i < nodes; i++ {
				if k < len(ev.PerNode[i]) {
					if err := p.Ingest(i, ev.PerNode[i][k]); err != nil {
						return sketchRun{}, err
					}
				}
			}
			observe(&tr, p.Estimate(), truthOf(srcs, vec, avg))
		}
		st, tf := p.Stats(), p.Traffic()
		name := "automon-perevent"
		if elide {
			name = "automon-elided"
		}
		return sketchRun{
			algorithm:    name,
			messages:     tf.Messages,
			payloadBytes: tf.PayloadBytes,
			checks:       int(st.Checks),
			elidedPct:    100 * float64(st.Elided) / float64(st.Events),
			maxErr:       tr.maxErr,
			meanErr:      tr.sumErr / float64(tr.steps),
		}, nil
	}

	runPeriodic := func(period int) (sketchRun, error) {
		srcs, err := newSources()
		if err != nil {
			return sketchRun{}, err
		}
		vec := make([]float64, d)
		avg := make([]float64, d)
		msgs, payload := 0, 0
		shippedEst := 0.0
		ship := func() {
			// Every node ships its current sketch vector to the coordinator,
			// whose estimate becomes exact at the ship instant.
			for i, s := range srcs {
				s.VectorInto(vec)
				msgs++
				payload += len((&core.DataResponse{NodeID: i, X: vec}).Encode())
			}
			shippedEst = truthOf(srcs, vec, avg)
		}
		var tr errTracker
		ship() // initial full picture, like the AutoMon Init sync
		for k := 0; k < ev.EventsPerNode(); k++ {
			for i := 0; i < nodes; i++ {
				if k < len(ev.PerNode[i]) {
					srcs[i].Apply(ev.PerNode[i][k])
				}
			}
			if (k+1)%period == 0 {
				ship()
			}
			observe(&tr, shippedEst, truthOf(srcs, vec, avg))
		}
		return sketchRun{
			algorithm:    fmt.Sprintf("periodic-%d", period),
			period:       period,
			messages:     msgs,
			payloadBytes: payload,
			maxErr:       tr.maxErr,
			meanErr:      tr.sumErr / float64(tr.steps),
		}, nil
	}

	var runs []sketchRun
	elided, err := runAutoMon(true)
	if err != nil {
		return nil, err
	}
	perEvent, err := runAutoMon(false)
	if err != nil {
		return nil, err
	}
	runs = append(runs, elided, perEvent)
	periods := []int{500, 250, 100, 50, 25, 10, 5, 1}
	for _, p := range periods {
		r, err := runPeriodic(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}

	// Equal-accuracy pick: the cheapest periodic run that still matches the
	// elided AutoMon run's max error.
	pick := -1
	for i, r := range runs {
		if r.period == 0 || r.maxErr > elided.maxErr {
			continue
		}
		if pick < 0 || r.messages < runs[pick].messages {
			pick = i
		}
	}

	t := &Table{
		Name: fmt.Sprintf("sketch ingestion: AutoMon vs periodic shipping (%d nodes, AMS %dx%d, eps=%g)", nodes, rows, cols, eps),
		Header: []string{"algorithm", "period", "events_per_node", "messages",
			"payload_bytes", "checks", "elided_pct", "max_err", "mean_err", "note"},
	}
	for i, r := range runs {
		note := ""
		if i == pick {
			note = "equal-accuracy pick"
		}
		t.Add(r.algorithm, r.period, ev.EventsPerNode(), r.messages,
			r.payloadBytes, r.checks, r.elidedPct, r.maxErr, r.meanErr, note)
	}
	return t, nil
}
