package ingest

import (
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/sketch"
	"automon/internal/testenv"
)

// benchPipeline assembles a one-node F2 group over a 4×64 sketch, warmed
// and synced, plus the churn cycle the benchmark replays. The churn pairs
// +1/−1 on a small working set, so the sketch oscillates inside the safe
// zone — the drift-within-zone regime the elision budget is built for.
func benchPipeline(tb testing.TB, elide bool) (*Pipeline, []sketch.Update) {
	tb.Helper()
	const rows, cols = 4, 64
	src, err := NewAMSSource(rows, cols, 42, 1.0/1024)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		src.Apply(sketch.Update{Item: uint64(i % 97), Delta: 1})
	}
	p, err := NewPipeline(Config{
		F:       funcs.AMSF2(rows, cols),
		Core:    core.Config{Epsilon: 0.1},
		Sources: []*AMSSource{src},
		Options: Options{Elide: elide},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.Init(); err != nil {
		tb.Fatal(err)
	}
	churn := make([]sketch.Update, 4096)
	for i := range churn {
		d := 1.0
		if i%2 == 1 {
			d = -1
		}
		churn[i] = sketch.Update{Item: uint64((i / 2) % 97), Delta: d}
	}
	return p, churn
}

// TestIngestZeroAllocsPerEvent locks in the allocation-free fast path. In
// elided mode every 4th event first resets the node's budget, so the
// measured loop exercises the exact-check-and-refresh path too, not just the
// elided branch.
func TestIngestZeroAllocsPerEvent(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	for _, mode := range []struct {
		name  string
		elide bool
	}{{"elided", true}, {"perevent", false}} {
		t.Run(mode.name, func(t *testing.T) {
			p, churn := benchPipeline(t, mode.elide)
			in := p.ings[0]
			k := 0
			allocs := testing.AllocsPerRun(2000, func() {
				if k%4 == 0 {
					in.Node().SetData(in.Node().LocalVector()) // resets the budget
				}
				if v := in.Ingest(churn[k%len(churn)]); v != nil {
					t.Fatalf("churn event %d violated: %+v", k, v.Kind)
				}
				k++
			})
			if allocs != 0 {
				t.Fatalf("%s Ingest allocates %.1f objects per event, want 0", mode.name, allocs)
			}
		})
	}
}

// BenchmarkIngestEventsPerSec is the headline: per-node event throughput of
// the elided path vs the per-event UpdateData baseline on the same
// drift-within-zone stream. Recorded in EXPERIMENTS.md ("Sketch ingestion");
// the acceptance bar is ≥ 5×.
func BenchmarkIngestEventsPerSec(b *testing.B) {
	for _, mode := range []struct {
		name  string
		elide bool
	}{{"perevent", false}, {"elided", true}} {
		b.Run(mode.name, func(b *testing.B) {
			p, churn := benchPipeline(b, mode.elide)
			in := p.ings[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := in.Ingest(churn[i%len(churn)]); v != nil {
					b.Fatalf("churn event violated: %+v", v.Kind)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
			st := in.Stats()
			b.ReportMetric(100*float64(st.Elided)/float64(st.Events), "%elided")
		})
	}
}
