package automon

// The benchmarks in this file regenerate the paper's tables and figures (one
// benchmark per table/figure; see DESIGN.md for the experiment index) and
// time the performance-critical operations of §4.4. Figure benchmarks run
// the quick-size experiment suite once per iteration and report headline
// metrics via b.ReportMetric; use cmd/automon-bench for the CSV series and
// -full for paper-size parameters.
//
// Run everything:   go test -bench=. -benchmem
// Skip the heavy figure sweeps: go test -bench=. -short

import (
	"math/rand"
	"strconv"
	"testing"

	"automon/internal/core"
	"automon/internal/experiments"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/sim"
)

func quickOpts() experiments.Options { return experiments.Options{Quick: true, Seed: 1} }

// reportTradeoff extracts a named algorithm's message total from a tradeoff
// table for headline reporting.
func sumMessages(t *experiments.Table, algo string) float64 {
	var total float64
	for _, row := range t.Rows {
		if row[1] == algo {
			v, _ := strconv.Atoi(row[3])
			total += float64(v)
		}
	}
	return total
}

func BenchmarkFig1SineSafeZones(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1SineZones(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3NeighborhoodSweep(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig3NeighborhoodSweep(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "rows")
	}
}

func BenchmarkFig4Traces(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Traces(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Tradeoff(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig5Tradeoff(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sumMessages(t, "automon"), "automon-msgs")
		b.ReportMetric(sumMessages(t, "centralization"), "central-msgs")
	}
}

func BenchmarkFig6ErrorProfile(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6ErrorProfile(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aDimensions(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7aDimensions(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7bNodes(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7bNodes(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Tuning(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8Tuning(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Ablation(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Ablation(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Bandwidth(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10Bandwidth(quickOpts(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeTable(b *testing.B) {
	if testing.Short() {
		b.Skip("figure sweep")
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RuntimeTable(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4.4 micro-benchmarks: the hot paths behind the runtime table ---

// BenchmarkNodeUpdate measures one node-side data update (constraint check),
// the per-sample cost on a resource-limited edge device.
func BenchmarkNodeUpdate(b *testing.B) {
	for _, d := range []int{10, 40, 200} {
		b.Run("inner-product-d"+strconv.Itoa(d), func(b *testing.B) {
			benchNodeUpdate(b, funcs.InnerProduct(d/2))
		})
	}
	mlp, err := funcs.TrainMLP(40, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mlp-40", func(b *testing.B) { benchNodeUpdate(b, mlp) })
}

func benchNodeUpdate(b *testing.B, f *core.Function) {
	d := f.Dim()
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.1
	}
	node := core.NewNode(0, f)
	grad := make([]float64, d)
	f0 := f.Grad(x0, grad)
	node.ApplySync(&core.Sync{
		NodeID: 0, Method: core.MethodX, Kind: core.ConvexDiff,
		X0: x0, F0: f0, GradF0: grad, L: f0 - 1e6, U: f0 + 1e6,
		Lam: 0.1, R: 1e6, Slack: make([]float64, d),
	})
	x := linalg.Clone(x0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = 0.1 + float64(i%7)*1e-4
		if v := node.UpdateData(x); v != nil {
			b.Fatal("unexpected violation in benchmark")
		}
	}
}

// BenchmarkFullSync measures a coordinator full sync: the ADCD-E path is a
// few matrix products; the ADCD-X path is dominated by the extreme-
// eigenvalue search.
func BenchmarkFullSync(b *testing.B) {
	cases := []struct {
		name    string
		f       *core.Function
		backend core.EigBackend
	}{
		{"adcd-e-inner-product-d40", funcs.InnerProduct(20), core.BackendLBFGS},
		{"adcd-x-kld-d20", funcs.KLD(10, 1e-3), core.BackendLBFGS},
		{"adcd-x-kld-d100", funcs.KLD(50, 1e-3), core.BackendLBFGS},
		// Eigen-engine comparison on the same sync: the certified interval
		// backend replaces the L-BFGS search; the hybrid may run both.
		{"adcd-x-kld-d20-interval", funcs.KLD(10, 1e-3), core.BackendInterval},
		{"adcd-x-kld-d20-hybrid", funcs.KLD(10, 1e-3), core.BackendHybrid},
		{"adcd-x-kld-d100-interval", funcs.KLD(50, 1e-3), core.BackendInterval},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := c.f.Dim()
			n := 4
			nodes := make([]*core.Node, n)
			init := make([]float64, d)
			for i := range init {
				init[i] = 0.3
			}
			for i := range nodes {
				nodes[i] = core.NewNode(i, c.f)
				nodes[i].SetData(init)
			}
			coord := core.NewCoordinator(c.f, n, core.Config{
				Epsilon: 0.1, R: 0.1,
				Decomp: core.DecompOptions{
					Seed: 1, OptStarts: 1, OptMaxIter: 20, OptMaxFunEvals: 100,
					Backend: c.backend,
				},
			}, &core.Fabric{Nodes: nodes})
			if err := coord.Init(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := coord.HandleViolation(&core.Violation{
					NodeID: 0, Kind: core.ViolationFaulty, X: init,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecomposeX isolates one ADCD-X decomposition per eigen-engine —
// the tightness-vs-build-cost frontier's cost axis (automon-bench
// -fig frontier renders both axes).
func BenchmarkDecomposeX(b *testing.B) {
	mlp, err := funcs.TrainMLP(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    *core.Function
		r    float64
	}{
		{"kld-d20", funcs.KLD(10, 1e-3), 0.05},
		{"mlp-d8", mlp, 0.3},
	} {
		d := c.f.Dim()
		x0 := make([]float64, d)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := range x0 {
			x0[i] = 0.3
			lo[i], hi[i] = 0.3-c.r, 0.3+c.r
		}
		for _, backend := range []core.EigBackend{core.BackendLBFGS, core.BackendInterval, core.BackendHybrid} {
			b.Run(c.name+"-"+backend.String(), func(b *testing.B) {
				opts := core.DecompOptions{Seed: 1, OptStarts: 1, Backend: backend}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.DecomposeX(c.f, x0, lo, hi, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHVP measures one Hessian-vector product on the MLP-40 graph —
// the inner loop of the ADCD-X eigenvalue search.
func BenchmarkHVP(b *testing.B) {
	f, err := funcs.TrainMLP(40, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := f.Dim()
	x := make([]float64, d)
	v := make([]float64, d)
	out := make([]float64, d)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
		v[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Graph.HVP(x, v, out)
	}
}

// BenchmarkEigenSym measures the symmetric eigensolver on Hessian-sized
// matrices.
func BenchmarkEigenSym(b *testing.B) {
	for _, d := range []int{20, 50, 100, 200} {
		b.Run("d"+strconv.Itoa(d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m := linalg.NewMat(d, d)
			for i := 0; i < d; i++ {
				for j := i; j < d; j++ {
					v := rng.NormFloat64()
					m.Set(i, j, v)
					m.Set(j, i, v)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := linalg.EigenSym(m, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulationRound measures a full simulated monitoring round
// (10 inner-product nodes) end to end.
func BenchmarkSimulationRound(b *testing.B) {
	o := quickOpts()
	w := experiments.InnerProductWorkload(o, 40, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Rebuild per iteration so state does not accumulate across runs.
		cfg := sim.Config{F: w.F, Data: w.Data, Algorithm: sim.AutoMon, Core: core.Config{Epsilon: 0.4}}
		b.StartTimer()
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Messages), "msgs")
	}
}
