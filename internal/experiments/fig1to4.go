package experiments

import (
	"math"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/optimize"
	"automon/internal/sim"
)

// Fig1SineZones reproduces Figure 1: the admissible region and the
// convex-/concave-difference safe zones for sin(x) at x0 = π/2 with
// L = 0.8, U = 1.2. The table reports each interval's endpoints.
func Fig1SineZones() (*Table, error) {
	f := funcs.Sine()
	x0 := []float64{math.Pi / 2}
	grad := make([]float64, 1)
	f0 := f.Grad(x0, grad)
	l, u := 0.8, 1.2

	scan := func(zone *core.SafeZone) (lo, hi float64) {
		const steps = 20000
		lo, hi = math.NaN(), math.NaN()
		for i := 0; i <= steps; i++ {
			x := math.Pi * float64(i) / steps
			if zone.Contains(f, []float64{x}) {
				if math.IsNaN(lo) {
					lo = x
				}
				hi = x
			}
		}
		return lo, hi
	}
	base := core.SafeZone{
		Method: core.MethodX, X0: linalg.Clone(x0), F0: f0,
		GradF0: linalg.Clone(grad), L: l, U: u,
	}
	convex := base
	convex.Kind = core.ConvexDiff
	convex.Lam = 1
	concave := base
	concave.Kind = core.ConcaveDiff
	concave.Lam = 1

	t := &Table{
		Name:   "fig1: sin(x) safe zones at x0=pi/2, L=0.8, U=1.2",
		Header: []string{"region", "lo", "hi"},
	}
	t.Add("admissible", math.Asin(l), math.Pi-math.Asin(l))
	cLo, cHi := scan(&convex)
	t.Add("convex-difference", cLo, cHi)
	kLo, kHi := scan(&concave)
	t.Add("concave-difference", kLo, kHi)
	return t, nil
}

// Fig3NeighborhoodSweep reproduces Figure 3: neighborhood vs safe-zone
// violation counts as functions of r while monitoring Rosenbrock under three
// error bounds, plus the violation-minimizing r*.
func Fig3NeighborhoodSweep(o Options) (*Table, error) {
	t := &Table{
		Name:   "fig3: violations vs neighborhood size (rosenbrock)",
		Header: []string{"eps", "r", "neighborhood_viol", "safezone_viol", "total", "is_optimal"},
	}
	w := RosenbrockWorkload(o, 10, 1000)
	data, err := replayData(w)
	if err != nil {
		return nil, err
	}
	rs := []float64{0.01, 0.02, 0.04, 0.07, 0.1, 0.14, 0.2, 0.3}
	for _, eps := range []float64{0.05, 0.25, 0.95} {
		type pt struct {
			r      float64
			counts core.ReplayCounts
		}
		// Each radius is an independent replay; fan them across the worker
		// pool and keep the results slot-addressed so rows stay in r order.
		pts := make([]pt, len(rs))
		err := optimize.ForEach(o.Workers, len(rs), func(i int) error {
			counts, err := core.Replay(w.F, data, w.Data.Nodes, core.Config{
				Epsilon: eps, R: rs[i], Decomp: w.Decomp,
			})
			if err != nil {
				return err
			}
			pts[i] = pt{rs[i], counts}
			return nil
		})
		if err != nil {
			return nil, err
		}
		best := 0
		for i, p := range pts {
			if p.counts.Total() < pts[best].counts.Total() {
				best = i
			}
		}
		for i, p := range pts {
			opt := 0
			if i == best {
				opt = 1
			}
			t.Add(eps, p.r, p.counts.Neighborhood, p.counts.SafeZone, p.counts.Total(), opt)
		}
	}
	return t, nil
}

// replayData converts a workload's streams into core.TuningData by running
// the windows forward (one snapshot per monitored round).
func replayData(w *Workload) (core.TuningData, error) {
	ds := w.Data
	return core.TuningData(ds.Snapshots(ds.FilledWindows(), 0, ds.Rounds)), nil
}

// Fig4Traces reproduces Figure 4: each monitored function's value over time
// with its default ±ε band (series downsampled to ≤ 500 points).
func Fig4Traces(o Options) (*Table, error) {
	t := &Table{
		Name:   "fig4: function value traces",
		Header: []string{"function", "round", "value", "eps"},
	}
	type entry struct {
		w   *Workload
		eps float64
		err error
	}
	mlp40, err := MLPWorkload(o, 40, 10)
	if err != nil {
		return nil, err
	}
	mlp2, err := MLPWorkload(o, 2, 10)
	if err != nil {
		return nil, err
	}
	dnn, err := DNNWorkload(o)
	if err != nil {
		return nil, err
	}
	entries := []entry{
		{InnerProductWorkload(o, 40, 10), 0.2, nil},
		{QuadraticWorkload(o, 40, 10), 0.05, nil},
		{KLDWorkload(o, 20, 12, 4000), 0.02, nil},
		{mlp40, 0.2, nil},
		{mlp2, 0.15, nil},
		{dnn, 0.01, nil},
	}
	for _, e := range entries {
		res, err := sim.Run(sim.Config{
			F: e.w.F, Data: e.w.Data, Algorithm: sim.Centralization,
			Core: core.Config{Epsilon: e.eps}, Trace: true,
		})
		if err != nil {
			return nil, err
		}
		stride := 1
		if len(res.TrueTrace) > 500 {
			stride = len(res.TrueTrace) / 500
		}
		for i := 0; i < len(res.TrueTrace); i += stride {
			t.Add(e.w.Name, i, res.TrueTrace[i], e.eps)
		}
	}
	return t, nil
}
