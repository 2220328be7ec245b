package experiments

import (
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
)

// BackendFrontier measures the tightness-vs-build-cost frontier of the three
// eigen-engines: for each bundled non-constant-Hessian function family and
// dimension, the same (x0, r) neighborhood is decomposed with the L-BFGS
// search, the certified interval engine and the hybrid, recording per-build
// wall time, the Lemma-1 curvature bounds each engine produced, the bound
// width (looser bounds → smaller safe zones → more syncs downstream), and
// how much optimizer work ran (opt_evals — zero for the interval engine, by
// construction and by count). EXPERIMENTS.md renders this as the backend
// comparison table.
func BackendFrontier(o Options) (*Table, error) {
	t := &Table{
		Name: "eigen-backend frontier: tightness vs build cost",
		Header: []string{"function", "dim", "backend", "build_us",
			"lam_abs_neg", "lam_pos_max", "width", "opt_evals", "refined"},
	}

	type probe struct {
		name string
		f    *core.Function
		x0   []float64
		r    float64
	}
	uniform := func(d int, v float64) []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = v
		}
		return x
	}
	kldDims := []int{8, 20, 40}
	mlpDims := []int{2, 8}
	if o.Quick {
		kldDims = []int{8, 20}
	}
	var probes []probe
	for _, d := range kldDims {
		bins := d / 2
		probes = append(probes, probe{
			name: "kld", f: funcs.KLD(bins, 1.0/float64(d*100)),
			x0: uniform(d, 1.0/float64(d)), r: 0.05,
		})
	}
	for _, d := range mlpDims {
		f, err := funcs.TrainMLP(d, o.Seed+5)
		if err != nil {
			return nil, err
		}
		probes = append(probes, probe{name: "mlp", f: f, x0: uniform(d, 0.2), r: 0.3})
	}
	probes = append(probes,
		probe{name: "rosenbrock", f: funcs.Rosenbrock(), x0: []float64{1, 1}, r: 0.5},
		probe{name: "cosine", f: funcs.CosineSimilarity(2), x0: []float64{0.9, 0.4, 1, 0.2}, r: 0.2},
		probe{name: "sine", f: funcs.Sine(), x0: []float64{1.2}, r: 0.5},
	)

	builds := 5
	if o.Quick {
		builds = 3
	}
	for _, p := range probes {
		d := p.f.Dim()
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i, v := range p.x0 {
			lo[i], hi[i] = v-p.r, v+p.r
		}
		for _, backend := range []core.EigBackend{core.BackendLBFGS, core.BackendInterval, core.BackendHybrid} {
			opts := o.decomp(core.DecompOptions{Seed: o.Seed})
			opts.Backend = backend // the frontier sweeps backends itself
			var dec *core.XDecomposition
			optEvals := 0
			//automon:allow determinism wall-clock build cost is this table's measured output
			start := time.Now()
			for b := 0; b < builds; b++ {
				var err error
				dec, err = core.DecomposeX(p.f, p.x0, lo, hi, opts)
				if err != nil {
					return nil, err
				}
				optEvals += dec.Eigensolves - 1 // all but the x0 solve
			}
			//automon:allow determinism wall-clock build cost is this table's measured output
			buildUS := float64(time.Since(start).Microseconds()) / float64(builds)
			t.Add(p.name, d, backend.String(), buildUS,
				dec.LamAbsNeg, dec.LamPosMax, dec.LamAbsNeg+dec.LamPosMax,
				optEvals/builds, dec.Refined)
		}
	}
	return t, nil
}
