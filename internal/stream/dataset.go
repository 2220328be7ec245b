package stream

import (
	"math"
	"math/rand"
)

// Dataset is a replayable multi-node data stream plus the windowing rule
// that turns samples into local vectors. Samples are pre-generated so the
// same dataset can be replayed across algorithms and tuning passes.
type Dataset struct {
	Name   string
	Nodes  int
	Rounds int // monitored rounds (after window fill)

	// fill[r][i] is node i's sample in warm-up round r (windows fill before
	// monitoring starts; every node receives every fill round).
	fill [][][]float64
	// samples[r][i] is node i's sample in monitored round r, or nil when the
	// node receives no update that round (the DNN workload updates a single
	// node per round).
	samples [][][]float64

	// NewWindow builds one node's Windower.
	NewWindow func() Windower
}

// FilledWindow builds node i's window and replays the warm-up rounds into it
// (§4.2: every window fills before monitoring starts).
func (d *Dataset) FilledWindow(i int) Windower {
	w := d.NewWindow()
	for _, round := range d.fill {
		w.Push(round[i])
	}
	return w
}

// FilledWindows builds every node's warmed-up window.
func (d *Dataset) FilledWindows() []Windower {
	ws := make([]Windower, d.Nodes)
	for i := range ws {
		ws[i] = d.FilledWindow(i)
	}
	return ws
}

// Snapshots pushes monitored rounds [from, to) into the windows and returns
// a copy of every window's vector before the first of them and after each:
// to−from+1 rounds × nodes × dim, the shape of a tuning replay.
func (d *Dataset) Snapshots(ws []Windower, from, to int) [][][]float64 {
	snapshot := func() [][]float64 {
		out := make([][]float64, len(ws))
		for i, w := range ws {
			out[i] = append([]float64(nil), w.Vector()...)
		}
		return out
	}
	data := [][][]float64{snapshot()}
	for r := from; r < to; r++ {
		for i, w := range ws {
			if s := d.samples[r][i]; s != nil {
				w.Push(s)
			}
		}
		data = append(data, snapshot())
	}
	return data
}

// Sample returns node i's sample in monitored round r (nil = no update).
func (d *Dataset) Sample(r, i int) []float64 { return d.samples[r][i] }

// Slice returns a shallow copy of the dataset restricted to monitored rounds
// [from, to); the warm-up prefix is retained. Used to split tuning data from
// evaluation data.
func (d *Dataset) Slice(from, to int) *Dataset {
	c := *d
	c.samples = d.samples[from:to]
	c.Rounds = to - from
	return &c
}

// NewCustom builds a dataset from an arbitrary per-round generator. The
// window is an averaging window of the given size; warm-up rounds replay
// gen(0, ·). Used by the ablation and micro-benchmark scenarios.
func NewCustom(name string, nodes, rounds, window, dim int, gen func(round, node int) []float64) *Dataset {
	ds := &Dataset{
		Name:      name,
		Nodes:     nodes,
		Rounds:    rounds,
		NewWindow: func() Windower { return NewAvgWindow(window, dim) },
	}
	round := func(r int) [][]float64 {
		out := make([][]float64, nodes)
		for i := 0; i < nodes; i++ {
			out[i] = gen(r, i)
		}
		return out
	}
	for r := 0; r < window; r++ {
		ds.fill = append(ds.fill, round(0))
	}
	for r := 0; r < rounds; r++ {
		ds.samples = append(ds.samples, round(r))
	}
	return ds
}

// MLPDrift is the §4.2 MLP-d workload: x₁ ~ N(μ_t, 0.1²) with μ drifting
// from −2 to 2 over the run, x₂..x_d ~ N(+2, 0.1²) on half the nodes and
// N(−2, 0.1²) on the rest, and two 20-round outlier windows at 72% and 76%
// of the run where μ jumps to 0. Window: 20-sample average.
func MLPDrift(d, nodes, rounds int, seed int64) *Dataset {
	const w = 20
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{
		Name:      "mlp-drift",
		Nodes:     nodes,
		Rounds:    rounds,
		NewWindow: func() Windower { return NewAvgWindow(w, d) },
	}
	gen := func(round, total int) [][]float64 {
		frac := float64(round) / float64(total)
		mu := -2 + 4*frac
		if (frac >= 0.72 && frac < 0.74) || (frac >= 0.76 && frac < 0.78) {
			mu = 0
		}
		out := make([][]float64, nodes)
		for i := 0; i < nodes; i++ {
			base := 2.0
			if i >= nodes/2 {
				base = -2.0
			}
			x := make([]float64, d)
			x[0] = mu + rng.NormFloat64()*0.1
			for j := 1; j < d; j++ {
				x[j] = base + rng.NormFloat64()*0.1
			}
			out[i] = x
		}
		return out
	}
	for r := 0; r < w; r++ {
		ds.fill = append(ds.fill, gen(0, rounds))
	}
	for r := 0; r < rounds; r++ {
		ds.samples = append(ds.samples, gen(r, rounds))
	}
	return ds
}

// InnerProductPhases is the §4.2 inner-product workload: quiet phases and
// rapid changes. The target signal combines a monotone ramp, a low-frequency
// and a high-frequency sine, and a constant tail; u entries track the signal
// while v entries stay near 1, so ⟨ū, v̄⟩ follows the signal.
func InnerProductPhases(half, nodes, rounds int, seed int64) *Dataset {
	const w = 20
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{
		Name:      "inner-product-phases",
		Nodes:     nodes,
		Rounds:    rounds,
		NewWindow: func() Windower { return NewAvgWindow(w, 2*half) },
	}
	// Quiet phases bracket the activity, as in the paper's Figure 4: a
	// non-adaptive Periodic baseline keeps paying during the long flat
	// stretches where AutoMon is silent.
	signal := func(frac float64) float64 {
		switch {
		case frac < 0.3:
			return 0.5
		case frac < 0.4:
			return 0.5 + 20*(frac-0.3) // ramp 0.5 → 2.5
		case frac < 0.55:
			return 2.5 + 0.8*math.Sin(2*math.Pi*(frac-0.4)/0.15)
		case frac < 0.65:
			return 2.5 + 0.4*math.Sin(2*math.Pi*6*(frac-0.55)/0.10)
		default:
			return 2.5
		}
	}
	gen := func(frac float64) [][]float64 {
		a := signal(frac) / float64(half)
		out := make([][]float64, nodes)
		for i := 0; i < nodes; i++ {
			x := make([]float64, 2*half)
			for j := 0; j < half; j++ {
				x[j] = a + rng.NormFloat64()*0.02
				x[half+j] = 1 + rng.NormFloat64()*0.02
			}
			out[i] = x
		}
		return out
	}
	for r := 0; r < w; r++ {
		ds.fill = append(ds.fill, gen(0))
	}
	for r := 0; r < rounds; r++ {
		ds.samples = append(ds.samples, gen(float64(r)/float64(rounds)))
	}
	return ds
}

// QuadraticOutlier is the §4.2 quadratic-form workload: all entries
// N(0, 0.1²), except one "outlier" node that alternates 40-sample blocks of
// N(0, 0.1²) and N(−4, 0.1²). (The paper uses N(−10, 0.1²); we scale the
// outlier level to keep f values O(1) with our 1/d-scaled Q — the shape of
// the workload, abrupt block switches on one node that non-adaptive periods
// miss, is preserved.)
func QuadraticOutlier(d, nodes, rounds int, seed int64) *Dataset {
	const w = 20
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{
		Name:      "quadratic-outlier",
		Nodes:     nodes,
		Rounds:    rounds,
		NewWindow: func() Windower { return NewAvgWindow(w, d) },
	}
	gen := func(round int) [][]float64 {
		out := make([][]float64, nodes)
		for i := 0; i < nodes; i++ {
			mean := 0.0
			if i == 0 && (round/40)%2 == 1 {
				mean = -4
			}
			x := make([]float64, d)
			for j := range x {
				x[j] = mean + rng.NormFloat64()*0.1
			}
			out[i] = x
		}
		return out
	}
	for r := 0; r < w; r++ {
		ds.fill = append(ds.fill, gen(0))
	}
	for r := 0; r < rounds; r++ {
		ds.samples = append(ds.samples, gen(r))
	}
	return ds
}

// RegimeShift is the drift workload for the adaptive-radius experiments: a
// stationary N(mu, sigma²) stream with one burst episode in the middle of the
// run where the noise scale jumps to burstSigma (a regime change that drives
// consecutive neighborhood violations and, in a static run, permanently
// inflates r via the §3.6 doubling fallback). Before and after the burst the
// stream is statistically identical, so any post-burst behavior difference is
// attributable to state the monitoring run carried out of the burst.
func RegimeShift(d, nodes, rounds int, mu, sigma, burstSigma float64, seed int64) *Dataset {
	const w = 20
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{
		Name:      "regime-shift",
		Nodes:     nodes,
		Rounds:    rounds,
		NewWindow: func() Windower { return NewAvgWindow(w, d) },
	}
	// Burst window: the middle fifth of the run.
	burstFrom, burstTo := 2*rounds/5, 3*rounds/5
	gen := func(round int) [][]float64 {
		s := sigma
		if round >= burstFrom && round < burstTo {
			s = burstSigma
		}
		out := make([][]float64, nodes)
		for i := 0; i < nodes; i++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = mu + rng.NormFloat64()*s
			}
			out[i] = x
		}
		return out
	}
	for r := 0; r < w; r++ {
		ds.fill = append(ds.fill, gen(0))
	}
	for r := 0; r < rounds; r++ {
		ds.samples = append(ds.samples, gen(r))
	}
	return ds
}

// GaussianNoise is a plain stationary workload (every entry N(mu, sigma²)),
// used by the tuning experiments (§3.6 samples Rosenbrock inputs from
// N(0, 0.2²)).
func GaussianNoise(d, nodes, rounds int, mu, sigma float64, seed int64) *Dataset {
	const w = 20
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{
		Name:      "gaussian",
		Nodes:     nodes,
		Rounds:    rounds,
		NewWindow: func() Windower { return NewAvgWindow(w, d) },
	}
	gen := func() [][]float64 {
		out := make([][]float64, nodes)
		for i := 0; i < nodes; i++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = mu + rng.NormFloat64()*sigma
			}
			out[i] = x
		}
		return out
	}
	for r := 0; r < w; r++ {
		ds.fill = append(ds.fill, gen())
	}
	for r := 0; r < rounds; r++ {
		ds.samples = append(ds.samples, gen())
	}
	return ds
}
