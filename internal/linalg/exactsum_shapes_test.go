package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/ingest"
	"automon/internal/linalg"
	"automon/internal/stream"
)

// syncAll is a full sync's gather as the coordinator runs it: reset the
// per-dimension sums, fold every node's vector, round. Every sum must stay
// in its window.
func syncAll(t *testing.T, what string, root []linalg.Acc, vecs [][]float64) {
	t.Helper()
	for j := range root {
		root[j].Reset()
	}
	for _, x := range vecs {
		linalg.AddVec(root, x)
	}
	for j := range root {
		root[j].Round() // normalizes: carries must not push a sum out either
		if linalg.AccSpilled(&root[j]) {
			t.Fatalf("%s: dimension %d spilled its window", what, j)
		}
	}
}

// TestAccBenchmarkShapesNeverSpill feeds the accumulators vectors shaped
// like the benchmark's three data sets — AMS 4×64 sketch counters over an
// episode stream, PM10/PM2.5 histogram windows, and a drifting d = 8 fleet —
// and requires that no sum ever leaves its window, so the coordinator's
// full syncs allocate nothing for them.
func TestAccBenchmarkShapesNeverSpill(t *testing.T) {
	t.Run("ams-4x64", func(t *testing.T) {
		const nodes, warm, events = 8, 400, 3000
		ev := stream.SketchEpisodes(nodes, warm, events, 1)
		srcs := make([]*ingest.AMSSource, nodes)
		vecs := make([][]float64, nodes)
		for i := range srcs {
			src, err := ingest.NewAMSSource(4, 64, 42, 1.0/warm)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range ev.Warm[i] {
				src.Apply(u)
			}
			srcs[i], vecs[i] = src, make([]float64, src.Dim())
		}
		root := make([]linalg.Acc, srcs[0].Dim())
		for k := 0; k < events; k++ {
			for i, src := range srcs {
				if k < len(ev.PerNode[i]) {
					src.Apply(ev.PerNode[i][k])
				}
			}
			if k%100 == 0 {
				for i, src := range srcs {
					src.VectorInto(vecs[i])
				}
				syncAll(t, "ams", root, vecs)
			}
		}
	})
	t.Run("histogram", func(t *testing.T) {
		const nodes, bins, window = 8, 50, 200
		rng := rand.New(rand.NewSource(2))
		ws := make([]*stream.HistWindow, nodes)
		for i := range ws {
			ws[i] = stream.NewHistWindow(window, bins, 0, 500)
		}
		root := make([]linalg.Acc, 2*bins)
		vecs := make([][]float64, nodes)
		for r := 0; r < 2000; r++ {
			for i, w := range ws {
				pm25 := 70 + 35*math.Sin(2*math.Pi*float64(r)/25+float64(i)) + 3*rng.NormFloat64()
				w.Push([]float64{1.2*pm25 + 4*rng.NormFloat64(), pm25})
				vecs[i] = w.Vector()
			}
			if r%20 == 0 {
				syncAll(t, "histogram", root, vecs)
			}
		}
	})
	t.Run("drift-d8", func(t *testing.T) {
		const nodes, d = 64, 8
		rng := rand.New(rand.NewSource(3))
		base := 1 / math.Sqrt(d)
		ws := make([]*stream.AvgWindow, nodes)
		offset := make([]float64, nodes*d)
		for i := range ws {
			ws[i] = stream.NewAvgWindow(4, d)
		}
		for i := range offset {
			offset[i] = 5e-2 * rng.NormFloat64()
		}
		root := make([]linalg.Acc, d)
		vecs := make([][]float64, nodes)
		sample := make([]float64, d)
		for r := 0; r < 2000; r++ {
			for i, w := range ws {
				for j := range sample {
					sample[j] = base + offset[i*d+j] + 2e-3*float64(r)*base + 1.5e-2*rng.NormFloat64()
				}
				w.Push(sample)
				vecs[i] = w.Vector()
			}
			if r%10 == 0 {
				syncAll(t, "drift", root, vecs)
			}
		}
	})
}
