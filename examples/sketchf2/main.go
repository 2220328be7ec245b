// Sketch composition (§5 of the paper): monitor the second frequency moment
// (F₂) of a distributed update stream by sketching locally and monitoring
// the query function of the *average sketch*. Because AMS sketches are
// linear, the average of the node sketches is the sketch of the averaged
// stream, and because the F₂ query is a quadratic form, AutoMon derives an
// exact ADCD-E decomposition — a deterministic ε-guarantee on a sketched
// statistic.
//
// Raw turnstile events go through the ingestion layer (internal/ingest) with
// safe-zone check elision: almost every event costs one sketch update plus
// one budget debit instead of a full safe-zone check, with bit-identical
// protocol outcomes — demonstrated by running the per-event pipeline on the
// same events alongside. Run with:
//
//	go run ./examples/sketchf2
package main

import (
	"flag"
	"fmt"
	"math"
	"reflect"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/ingest"
	"automon/internal/stream"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

func main() {
	eventsFlag := flag.Int("events", 3000, "monitored events per node")
	flag.Parse()
	events := *eventsFlag

	// Sketch-backed sources, check elision on the monitored pipeline, and a
	// per-event twin run proving the elision is protocol-invisible.
	const (
		rows, cols = 4, 64
		nodes      = 8
		warm       = 400
		eps        = 0.1
	)
	f := funcs.AMSF2(rows, cols)
	ev := stream.SketchEpisodes(nodes, warm, events, 23)

	fmt.Printf("ingesting %d events/node across %d nodes (AMS %d×%d = %d-dim local state, ε = %v)\n\n",
		events, nodes, rows, cols, f.Dim(), eps)

	run := func(elide bool) (*ingest.Pipeline, float64) {
		srcs := make([]*ingest.AMSSource, nodes)
		for i := range srcs {
			s, err := ingest.NewAMSSource(rows, cols, 42, 1.0/warm)
			check(err)
			for _, u := range ev.Warm[i] {
				s.Apply(u)
			}
			srcs[i] = s
		}
		p, err := ingest.NewPipeline(ingest.Config{
			F:       f,
			Core:    core.Config{Epsilon: eps},
			Sources: srcs,
			Options: ingest.Options{Elide: elide},
		})
		check(err)
		check(p.Init())
		vec := make([]float64, f.Dim())
		avg := make([]float64, f.Dim())
		maxErr := 0.0
		for k := 0; k < ev.EventsPerNode(); k++ {
			for i := 0; i < nodes; i++ {
				if k < len(ev.PerNode[i]) {
					check(p.Ingest(i, ev.PerNode[i][k]))
				}
			}
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
				avg[j] /= nodes
			}
			if e := math.Abs(p.Estimate() - f.Value(avg)); e > maxErr {
				maxErr = e
			}
		}
		return p, maxErr
	}

	elided, maxErr := run(true)
	perEvent, _ := run(false)

	st, tf := elided.Stats(), elided.Traffic()
	fmt.Printf("elided:    %d events, %d exact checks (%.1f%% skipped), %d violations, %d messages\n",
		st.Events, st.Checks, 100*float64(st.Elided)/float64(st.Events), len(elided.Log), tf.Messages)
	stp := perEvent.Stats()
	fmt.Printf("per-event: %d events, %d exact checks, %d violations, %d messages\n",
		stp.Events, stp.Checks, len(perEvent.Log), perEvent.Traffic().Messages)

	identical := reflect.DeepEqual(elided.Log, perEvent.Log) &&
		math.Float64bits(elided.Estimate()) == math.Float64bits(perEvent.Estimate())
	fmt.Printf("\nprotocol outcomes identical: %v\n", identical)
	fmt.Printf("max error %.4f (bound %v, deterministic: ADCD-E on a quadratic query)\n", maxErr, eps)
}
