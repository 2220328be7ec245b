// Package experiments regenerates every table and figure of the AutoMon
// paper's evaluation (§4) on the in-repo substrates. Each FigN function
// returns machine-readable tables whose rows correspond to the series
// plotted in the paper; cmd/automon-bench renders them as CSV and the
// repository's bench_test.go wires them into `go test -bench`.
//
// Absolute values differ from the paper (synthetic stand-ins replace the
// KDD-99 and Beijing datasets, and round counts are scaled down to
// laptop-friendly sizes), but the shapes under comparison — who wins, by
// what factor, where the curves cross — are the reproduction targets;
// EXPERIMENTS.md records paper-vs-measured for each figure.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/nn"
	"automon/internal/sim"
	"automon/internal/stream"
)

// Options scale the experiment suite.
type Options struct {
	// Quick shrinks round counts and model sizes so the full suite runs in
	// minutes; the full-size variants follow the paper's parameters where
	// computationally sensible.
	Quick bool
	// Seed drives every generator and optimizer for reproducibility.
	Seed int64
	// Workers bounds the goroutines running independent runs inside each
	// figure sweep: 0 means one worker per core (GOMAXPROCS), 1 runs them one
	// at a time. The eigenvalue search's start pool and Tune's replay waves
	// size themselves from GOMAXPROCS. Sweeps deposit results into
	// index-addressed slots and the core layers are deterministic at any
	// width, so the tables are identical regardless of Workers.
	Workers int
	// EigBackend selects the eigen-engine for every ADCD-X zone build the
	// suite performs (core.BackendLBFGS, the default multi-start search;
	// core.BackendInterval, the certified interval engine; or
	// core.BackendHybrid). automon-bench exposes it as -eig-backend.
	EigBackend core.EigBackend

	// SketchRows and SketchCols shape the AMS sketches of the ingestion
	// experiments (SketchTable, the sketch-f2 workload); 0 means 4×32.
	SketchRows, SketchCols int
}

// decomp stamps the sweep-wide eigen-engine selection onto a workload's
// decomposition options; every workload constructor routes its DecompOptions
// through here so -eig-backend reaches each zone build and tuning run the
// suite performs.
func (o Options) decomp(d core.DecompOptions) core.DecompOptions {
	d.Backend = o.EigBackend
	return d
}

func (o Options) rounds(full int) int {
	if o.Quick {
		if full > 2000 {
			return full / 10
		}
		return full / 2
	}
	return full
}

// Table is a simple labelled grid, one per figure series.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case int:
			row[i] = strconv.Itoa(v)
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 6, 64)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV renders the table as CSV with a leading comment naming it.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Name); err != nil {
		return err
	}
	write := func(cells []string) error {
		for i, c := range cells {
			sep := ","
			if i == len(cells)-1 {
				sep = "\n"
			}
			if _, err := io.WriteString(w, c+sep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := write(r); err != nil {
			return err
		}
	}
	return nil
}

// Workload bundles a function with its dataset and monitoring defaults.
type Workload struct {
	Name string
	F    *core.Function
	Data *stream.Dataset
	// FixedR pins the ADCD-X neighborhood size; 0 lets the run tune it on
	// TuneRounds of data.
	FixedR     float64
	TuneRounds int
	Decomp     core.DecompOptions
}

// run executes one monitored configuration. cc carries the core settings a
// sweep varies (the adaptive sweep's controller knobs); Epsilon, the pinned
// or tuned radius and the eigen-engine options are stamped from the workload.
func (w *Workload) run(alg sim.Algorithm, eps float64, period int, cc core.Config) (*sim.Result, error) {
	cc.Epsilon = eps
	cc.R = w.FixedR
	cc.Decomp = w.Decomp
	return sim.Run(sim.Config{
		F:          w.F,
		Data:       w.Data,
		Algorithm:  alg,
		Period:     period,
		Core:       cc,
		TuneRounds: w.TuneRounds,
	})
}

// InnerProductWorkload is the §4.2 inner-product setup (default d = 40,
// n = 10).
func InnerProductWorkload(o Options, d, nodes int) *Workload {
	half := d / 2
	return &Workload{
		Name:   "inner-product",
		F:      funcs.InnerProduct(half),
		Data:   stream.InnerProductPhases(half, nodes, o.rounds(1000), o.Seed+1),
		Decomp: o.decomp(core.DecompOptions{Seed: o.Seed}),
	}
}

// QuadraticWorkload is the §4.2 quadratic-form setup (d = 40, n = 10, one
// outlier node).
func QuadraticWorkload(o Options, d, nodes int) *Workload {
	return &Workload{
		Name:   "quadratic",
		F:      funcs.RandomQuadratic(d, o.Seed+2),
		Data:   stream.QuadraticOutlier(d, nodes, o.rounds(1000), o.Seed+3),
		Decomp: o.decomp(core.DecompOptions{Seed: o.Seed}),
	}
}

// KLDWorkload is the §4.2 KLD-over-air-quality setup (default d = 20,
// n = 12 sites).
func KLDWorkload(o Options, d, nodes, rounds int) *Workload {
	bins := d / 2
	tau := 1.0 / float64(nodes*200)
	return &Workload{
		Name:       "kld",
		F:          funcs.KLD(bins, tau),
		Data:       stream.NewAirQuality(nodes, bins, o.rounds(rounds), o.Seed+4),
		TuneRounds: o.rounds(200),
		Decomp:     o.decomp(core.DecompOptions{Seed: o.Seed, OptStarts: 1, OptMaxIter: 25, OptMaxFunEvals: 150}),
	}
}

// MLPWorkload is the §4.2 MLP-d setup (n = 10 by default).
func MLPWorkload(o Options, d, nodes int) (*Workload, error) {
	f, err := funcs.TrainMLP(d, o.Seed+5)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name:       fmt.Sprintf("mlp-%d", d),
		F:          f,
		Data:       stream.MLPDrift(d, nodes, o.rounds(1000), o.Seed+6),
		TuneRounds: o.rounds(200),
		Decomp:     o.decomp(core.DecompOptions{Seed: o.Seed, OptStarts: 1, OptMaxIter: 25, OptMaxFunEvals: 150}),
	}, nil
}

// DNNWorkload is the §4.2 intrusion-detection setup: a ReLU DNN trained on
// the synthetic KDD-like stream, 9 nodes, single-node updates. Quick mode
// narrows the hidden layers (128-64-32-16-8 instead of 512-64-32-16-8) and
// pins the tuned neighborhood size to keep the suite fast; the full-size
// variant tunes r on a data prefix like the paper.
func DNNWorkload(o Options) (*Workload, error) {
	// The monitored signal is flat outside attack-burst transitions, so the
	// AutoMon/centralization message ratio improves with run length (the
	// paper streams 311K samples); these sizes keep the suite tractable.
	rounds := 20000
	width := 512
	if o.Quick {
		rounds = 3000
		width = 128
	}
	in := stream.NewIntrusion(9, rounds, o.Seed+7)
	rng := rand.New(rand.NewSource(o.Seed + 8))
	net, err := nn.New(rng,
		[]int{stream.IntrusionFeatures, width, 64, 32, 16, 8, 1},
		[]nn.Activation{nn.ReLU, nn.ReLU, nn.ReLU, nn.ReLU, nn.ReLU, nn.Sigmoid})
	if err != nil {
		return nil, err
	}
	// Soft targets keep the sigmoid unsaturated, so the monitored signal
	// varies gently around 0.5 like the paper's Figure 4 DNN trace
	// (≈ [0.48, 0.56]) instead of snapping between 0 and 1; the classifier
	// still separates attack from normal at the 0.5 threshold.
	soft := make([]float64, len(in.TrainY))
	for i, y := range in.TrainY {
		soft[i] = 0.45 + 0.13*y
	}
	if _, err := net.Train(rng, in.TrainX, soft, nn.TrainConfig{Epochs: 6, LR: 0.02, Loss: nn.MSE}); err != nil {
		return nil, err
	}
	w := &Workload{
		Name:   "dnn-intrusion",
		F:      funcs.Network("dnn-intrusion", net),
		Data:   in.Dataset,
		Decomp: o.decomp(core.DecompOptions{Seed: o.Seed, OptStarts: 1, OptMaxIter: 8, OptMaxFunEvals: 40}),
	}
	if o.Quick {
		w.FixedR = 0.08 // one-time offline tune; see EXPERIMENTS.md
	} else {
		w.TuneRounds = 400
	}
	return w, nil
}

// RosenbrockWorkload is the §3.6/§4.5 tuning setup: inputs N(0, 0.2²).
func RosenbrockWorkload(o Options, nodes, rounds int) *Workload {
	return &Workload{
		Name:   "rosenbrock",
		F:      funcs.Rosenbrock(),
		Data:   stream.GaussianNoise(2, nodes, o.rounds(rounds), 0, 0.2, o.Seed+9),
		Decomp: o.decomp(core.DecompOptions{Seed: o.Seed}),
	}
}
