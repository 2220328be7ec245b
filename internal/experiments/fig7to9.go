package experiments

import (
	"errors"
	"sort"
	"strconv"

	"automon/internal/core"
	"automon/internal/optimize"
	"automon/internal/sim"
)

// Fig7aDimensions reproduces Figure 7(a): message counts as the input
// dimension grows (KLD, MLP-d, inner product; n = 12, 1000 rounds each).
func Fig7aDimensions(o Options) (*Table, error) {
	t := &Table{
		Name:   "fig7a: impact of dimension",
		Header: []string{"function", "dim", "messages", "max_err", "central_messages"},
	}
	dims := []int{10, 20, 40, 100, 200}
	if o.Quick {
		dims = []int{10, 20, 40, 100}
	}
	const nodes = 12
	// Every (dimension, function) cell is an independent pair of runs; fan
	// the cells across the worker pool and emit rows in cell order.
	type cell struct {
		name string
		eps  float64
		make func() (*Workload, error)
	}
	var cells []cell
	for _, d := range dims {
		d := d
		cells = append(cells,
			cell{"inner-product", 0.2, func() (*Workload, error) { return InnerProductWorkload(o, d, nodes), nil }},
			cell{"kld", 0.02, func() (*Workload, error) { return KLDWorkload(o, d, nodes, 1000), nil }},
			cell{"mlp-d", 0.2, func() (*Workload, error) { return MLPWorkload(o, d, nodes) }},
		)
	}
	type cellOut struct {
		messages, central int
		maxErr            float64
	}
	outs := make([]cellOut, len(cells))
	err := optimize.ForEach(o.Workers, len(cells), func(i int) error {
		w, err := cells[i].make()
		if err != nil {
			return err
		}
		res, err := w.run(sim.AutoMon, cells[i].eps, 0, core.Config{})
		if err != nil {
			return err
		}
		central, err := w.run(sim.Centralization, cells[i].eps, 0, core.Config{})
		if err != nil {
			return err
		}
		outs[i] = cellOut{messages: res.Messages, central: central.Messages, maxErr: res.MaxErr}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		t.Add(c.name, dims[i/3], outs[i].messages, outs[i].maxErr, outs[i].central)
	}
	return t, nil
}

// Fig7bNodes reproduces Figure 7(b): message counts as the node count grows
// (MLP-40 and inner product d = 40); the AutoMon/Centralization ratio should
// stay roughly constant.
func Fig7bNodes(o Options) (*Table, error) {
	t := &Table{
		Name:   "fig7b: impact of node count",
		Header: []string{"function", "nodes", "messages", "central_messages", "ratio"},
	}
	counts := []int{10, 30, 100, 300, 1000}
	if o.Quick {
		counts = []int{10, 30, 100, 300}
	}
	// One task per (node count, function) pair, rows emitted in task order.
	type out struct {
		messages, central int
	}
	outs := make([]out, 2*len(counts))
	err := optimize.ForEach(o.Workers, 2*len(counts), func(i int) error {
		n := counts[i/2]
		var w *Workload
		var err error
		if i%2 == 0 {
			w = InnerProductWorkload(o, 40, n)
		} else {
			if w, err = MLPWorkload(o, 40, n); err != nil {
				return err
			}
		}
		res, err := w.run(sim.AutoMon, 0.2, 0, core.Config{})
		if err != nil {
			return err
		}
		central, err := w.run(sim.Centralization, 0.2, 0, core.Config{})
		if err != nil {
			return err
		}
		outs[i] = out{messages: res.Messages, central: central.Messages}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, oo := range outs {
		name := "inner-product"
		if i%2 == 1 {
			name = "mlp-40"
		}
		t.Add(name, counts[i/2], oo.messages, oo.central,
			float64(oo.messages)/float64(oo.central))
	}
	return t, nil
}

// Fig8Tuning reproduces Figure 8: messages under the optimal neighborhood
// size r*, the Algorithm 2 tuned r̂, and fixed sizes r ∈ {0.05, 0.5, 2.5}
// across error bounds, for Rosenbrock and MLP-2, averaged over repetitions.
func Fig8Tuning(o Options) (*Table, error) {
	t := &Table{
		Name:   "fig8: neighborhood tuning quality",
		Header: []string{"function", "eps", "strategy", "r", "messages"},
	}
	reps := 5
	if o.Quick {
		reps = 2
	}
	fixed := []float64{0.05, 0.5, 2.5}

	type workloadMaker struct {
		name string
		make func(rep int) (*Workload, error)
		epss []float64
	}
	makers := []workloadMaker{
		{
			name: "rosenbrock",
			make: func(rep int) (*Workload, error) {
				oo := o
				oo.Seed = o.Seed + int64(100*rep)
				return RosenbrockWorkload(oo, 10, 1000), nil
			},
			epss: []float64{0.1, 0.5, 1.0, 1.5},
		},
		{
			name: "mlp-2",
			make: func(rep int) (*Workload, error) {
				oo := o
				oo.Seed = o.Seed + int64(100*rep)
				return MLPWorkload(oo, 2, 10)
			},
			epss: []float64{0.05, 0.1, 0.2, 0.3},
		},
	}

	// Repetitions are independent (each draws its own workload from a
	// rep-shifted seed), so they fan across the worker pool. Each rep
	// accumulates (strategy, eps, r, msgs) entries into a private buffer;
	// after the join the buffers are folded in rep order so the float
	// accumulation — and hence the emitted averages — match a sequential run
	// bit for bit.
	type entry struct {
		strategy string
		eps, r   float64
		msgs     int
	}
	for _, mk := range makers {
		perRep := make([][]entry, reps)
		err := optimize.ForEach(o.Workers, reps, func(rep int) error {
			w, err := mk.make(rep)
			if err != nil {
				return err
			}
			record := func(strategy string, eps, r float64, msgs int) {
				perRep[rep] = append(perRep[rep], entry{strategy, eps, r, msgs})
			}
			tuneData, err := replayData(&Workload{
				Name: w.Name, F: w.F,
				Data:   w.Data.Slice(0, o.rounds(200)),
				Decomp: w.Decomp,
			})
			if err != nil {
				return err
			}
			evalData := w.Data.Slice(o.rounds(200), w.Data.Rounds)
			runWith := func(eps, r float64) (int, error) {
				res, err := sim.Run(sim.Config{
					F: w.F, Data: evalData, Algorithm: sim.AutoMon,
					Core: core.Config{Epsilon: eps, R: r, Decomp: w.Decomp},
				})
				if err != nil {
					return 0, err
				}
				return res.Messages, nil
			}
			for _, eps := range mk.epss {
				// Tuned r̂ from Algorithm 2 on the prefix.
				strategy, r, err := tunedRadius(w.F, tuneData, w.Data.Nodes,
					core.Config{Epsilon: eps, Decomp: w.Decomp})
				if err != nil {
					return err
				}
				msgs, err := runWith(eps, r)
				if err != nil {
					return err
				}
				record(strategy, eps, r, msgs)

				// Optimal r*: grid over the evaluation run itself.
				bestR, bestMsgs := 0.0, -1
				for _, r := range []float64{0.01, 0.02, 0.04, 0.08, 0.15, 0.3, 0.6, 1.2, 2.5} {
					m, err := runWith(eps, r)
					if err != nil {
						return err
					}
					if bestMsgs < 0 || m < bestMsgs {
						bestR, bestMsgs = r, m
					}
				}
				record("optimal", eps, bestR, bestMsgs)

				for _, r := range fixed {
					m, err := runWith(eps, r)
					if err != nil {
						return err
					}
					record("fixed-"+formatR(r), eps, r, m)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		type acc struct {
			msgs float64
			r    float64
			n    int
		}
		// strategy key → per-eps accumulation, folded in rep order.
		sums := map[string]map[float64]*acc{}
		for _, es := range perRep {
			for _, e := range es {
				if sums[e.strategy] == nil {
					sums[e.strategy] = map[float64]*acc{}
				}
				a := sums[e.strategy][e.eps]
				if a == nil {
					a = &acc{}
					sums[e.strategy][e.eps] = a
				}
				a.msgs += float64(e.msgs)
				a.r += e.r
				a.n++
			}
		}
		// The accumulators are keyed by map; emit rows in sorted
		// (strategy, eps) order so the table is identical across runs —
		// map iteration order would otherwise shuffle the CSV.
		strategies := make([]string, 0, len(sums))
		for strategy := range sums {
			strategies = append(strategies, strategy)
		}
		sort.Strings(strategies)
		for _, strategy := range strategies {
			perEps := sums[strategy]
			epss := make([]float64, 0, len(perEps))
			for eps := range perEps {
				epss = append(epss, eps)
			}
			sort.Float64s(epss)
			for _, eps := range epss {
				a := perEps[eps]
				t.Add(mk.name, eps, strategy, a.r/float64(a.n), int(a.msgs/float64(a.n)))
			}
		}
	}
	return t, nil
}

// tunedRadius runs Algorithm 2 and names the Fig. 8 row its radius goes to.
// r only affects communication, never ε-correctness, so a bracket that fails
// at both ends does not abort the figure (sim.Run takes the same view): the
// repetition proceeds with the grid point Tune still returns and is averaged
// into a "tuned-unconverged" row of its own.
func tunedRadius(f *core.Function, data core.TuningData, n int, cfg core.Config) (strategy string, r float64, err error) {
	tuned, err := core.Tune(f, data, n, cfg)
	if errors.Is(err, core.ErrBracketNotConverged) {
		return "tuned-unconverged", tuned.R, nil
	}
	return "tuned", tuned.R, err
}

// formatR renders a fixed-strategy radius for the row label. The shortest
// round-trip formatting reproduces the exact literals the fixed grid is
// declared with ("0.05", "0.5", "2.5"), without comparing floats with ==.
func formatR(r float64) string {
	return strconv.FormatFloat(r, 'g', -1, 64)
}

// Fig9Ablation reproduces Figure 9: max error and cumulative messages over
// time for AutoMon, no-ADCD, and no-ADCD-no-slack on −x1²+x2² (4 drifting
// nodes with outliers) and MLP-2.
func Fig9Ablation(o Options) (*Table, error) {
	t := &Table{
		Name:   "fig9: ablation of ADCD, slack, lazy sync",
		Header: []string{"function", "variant", "round", "running_max_err", "cum_messages"},
	}

	addTraces := func(fn, variant string, res *sim.Result) {
		running := 0.0
		stride := 1
		if len(res.ErrTrace) > 400 {
			stride = len(res.ErrTrace) / 400
		}
		for i := 0; i < len(res.ErrTrace); i++ {
			if res.ErrTrace[i] > running {
				running = res.ErrTrace[i]
			}
			if i%stride == 0 {
				t.Add(fn, variant, i, running, res.CumMessages[i])
			}
		}
	}

	variants := []struct {
		name string
		cfg  func(eps float64) core.Config
	}{
		{"automon", func(eps float64) core.Config { return core.Config{Epsilon: eps} }},
		{"no-adcd", func(eps float64) core.Config { return core.Config{Epsilon: eps, DisableADCD: true} }},
		{"no-adcd-no-slack", func(eps float64) core.Config {
			return core.Config{Epsilon: eps, DisableADCD: true, DisableSlack: true}
		}},
	}

	// Saddle: 4 nodes, drift along the zero set + outlier window (§4.6).
	saddle := saddleAblationWorkload(o)
	for _, v := range variants {
		cfg := v.cfg(0.02)
		cfg.Decomp = o.decomp(core.DecompOptions{Seed: o.Seed})
		res, err := sim.Run(sim.Config{
			F: saddle.F, Data: saddle.Data, Algorithm: sim.AutoMon, Core: cfg, Trace: true,
		})
		if err != nil {
			return nil, err
		}
		addTraces("saddle", v.name, res)
	}
	central, err := sim.Run(sim.Config{
		F: saddle.F, Data: saddle.Data, Algorithm: sim.Centralization,
		Core: core.Config{Epsilon: 0.02}, Trace: true,
	})
	if err != nil {
		return nil, err
	}
	addTraces("saddle", "centralization", central)

	// MLP-2 with the same variants (ε = 0.15).
	mlp, err := MLPWorkload(o, 2, 10)
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		cfg := v.cfg(0.15)
		cfg.R = 0.3 // fixed across variants so only the ablation differs
		cfg.Decomp = o.decomp(core.DecompOptions{Seed: o.Seed})
		res, err := sim.Run(sim.Config{
			F: mlp.F, Data: mlp.Data, Algorithm: sim.AutoMon, Core: cfg, Trace: true,
		})
		if err != nil {
			return nil, err
		}
		addTraces("mlp-2", v.name, res)
	}
	return t, nil
}
