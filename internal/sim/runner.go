// Package sim is the discrete-event simulation harness of §4.1: it replays a
// dataset against a monitoring algorithm on a single machine while counting
// every message and byte that would cross the network, and tracking the
// approximation error of the coordinator's estimate against the true
// function of the global average. All of the paper's simulated experiments
// (Figures 3–9) are driven through this package.
package sim

import (
	"fmt"
	"math"
	"sort"

	"automon/internal/core"
	"automon/internal/linalg"
	"automon/internal/shard"
	"automon/internal/stream"
)

// Algorithm selects the monitoring strategy.
type Algorithm uint8

const (
	// AutoMon runs the full protocol of internal/core: ADCD-E/X selected
	// automatically, slack, and LRU lazy sync (unless disabled in Core).
	// Hand-crafted GM baselines (CB) also take this path via
	// Core.ZoneBuilder.
	AutoMon Algorithm = iota
	// Centralization sends every local-vector update to the coordinator;
	// zero error, maximal communication.
	Centralization
	// Periodic sends all local vectors every Period rounds; non-adaptive.
	Periodic
	// Hybrid runs AutoMon with the §6 fallback policy: when a budget window
	// costs more messages than centralization would, it centralizes for one
	// window and then re-engages AutoMon with a full resync.
	Hybrid
)

func (a Algorithm) String() string {
	switch a {
	case AutoMon:
		return "automon"
	case Centralization:
		return "centralization"
	case Hybrid:
		return "hybrid"
	}
	return "periodic"
}

// Config describes one monitoring run.
type Config struct {
	F    *core.Function
	Data *stream.Dataset

	Algorithm Algorithm
	Core      core.Config // AutoMon-family settings (ε is read from here for error accounting)
	Period    int         // Periodic: rounds between broadcasts

	// TuneRounds runs Algorithm 2 on the first TuneRounds monitored rounds
	// to pick the neighborhood size (only meaningful for ADCD-X runs with
	// Core.R == 0); monitoring statistics cover the remaining rounds.
	TuneRounds int

	// Shards > 0 runs AutoMon and Hybrid through a hierarchical sharded
	// coordinator (internal/shard) with that many leaf shards instead of the
	// flat one. In the default routing mode the run is bit-identical to a
	// flat run over the same stream (the differential suite asserts it);
	// with ShardAbsorb leaves absorb safe-zone violations locally and the run
	// is ε-correct but not bitwise comparable. The baselines build no tree,
	// so Run rejects all three topology fields for them.
	Shards int
	// TreeFanout bounds the children per interior shard tier; 0 means
	// shard.DefaultFanout.
	TreeFanout int
	// ShardAbsorb selects shard.ModeAbsorb for a sharded run.
	ShardAbsorb bool

	// Trace records per-round estimate/true/error series and the cumulative
	// message count (used by the time-series figures).
	Trace bool

	// Test hooks, set by in-package tests only.
	//
	// elide enables safe-zone check elision for the AutoMon family
	// (core.Group.EnableElision); protocol outcomes are bit-identical to the
	// per-round path. Requires F to carry a curvature bound (constant
	// Hessian or WithCurvature); Run fails loudly otherwise.
	elide bool
	// shardChaos, when set on a sharded run, is invoked before every
	// monitored round (and once after the last) with the round index and
	// the live tree, to kill and rejoin whole sub-trees mid-stream.
	shardChaos func(round int, tree *shard.Tree)
	// lend, when set, returns the fabric to build the monitor over in place
	// of the group, and a wrapper for the monitor the group resolves its
	// violations through (lending_test.go).
	lend func(g *core.Group) (core.NodeComm, func(core.Monitor) core.Monitor)
}

// Result aggregates one run.
type Result struct {
	Algorithm string
	Function  string
	Rounds    int

	Messages       int
	MessagesByType map[core.MsgType]int
	PayloadBytes   int

	MaxErr, MeanErr, P99Err float64
	MissedRounds            int // rounds with error above ε

	// ElidedChecks counts monitored node-rounds whose safe-zone check the
	// elision budget skipped (elided runs only; zero otherwise).
	ElidedChecks int

	// RefusedSyncs counts syncs a node could not check and refused; anything
	// but zero voids the run (the coordinator believes the zone installed).
	RefusedSyncs int

	Stats  core.CoordStats
	TunedR float64
	// TuneUnconverged reports that Algorithm 2's bracket converged at neither
	// end (core.ErrBracketNotConverged), so TunedR is the best grid point of
	// a degenerate bracket. r only affects communication, never ε-correctness,
	// so the run proceeds with it.
	TuneUnconverged bool
	// FinalR is the coordinator's neighborhood radius when the run ended; it
	// differs from TunedR when §3.6 doubling or the adaptive controller moved
	// r during the run (AutoMon/Hybrid only).
	FinalR float64

	// Traces are populated when Config.Trace is set.
	TrueTrace, EstTrace, ErrTrace []float64
	CumMessages                   []int
}

// counter accounts for every message and its encoded payload size. It hangs
// on the group fabric's OnMessage hook; the baseline algorithms
// (centralization, periodic, hybrid fallback) call count directly.
type counter struct {
	res     *Result
	scratch []byte // reused encoding, measured and dropped
}

func (c *counter) count(m core.Message) {
	c.res.Messages++
	c.res.MessagesByType[m.Type()]++
	c.scratch = m.AppendBinary(c.scratch[:0])
	c.res.PayloadBytes += len(c.scratch)
}

// Run executes one monitoring run and returns its statistics. It owns the
// only loop over the dataset: each round it pushes every node's sample into
// its window, hands the window's vector to the algorithm, and observes the
// algorithm's estimate against the true function of the global average.
func Run(cfg Config) (*Result, error) {
	if cfg.F == nil || cfg.Data == nil {
		return nil, fmt.Errorf("sim: config requires F and Data")
	}
	baseline := cfg.Algorithm == Centralization || cfg.Algorithm == Periodic
	if baseline && (cfg.Shards != 0 || cfg.TreeFanout != 0 || cfg.ShardAbsorb) {
		return nil, fmt.Errorf("sim: %s builds no shard tree; Shards, TreeFanout and ShardAbsorb need AutoMon or Hybrid", cfg.Algorithm)
	}
	res := &Result{
		Algorithm:      cfg.Algorithm.String(),
		Function:       cfg.F.Name,
		MessagesByType: make(map[core.MsgType]int),
	}
	windows := cfg.Data.FilledWindows()
	for i := range windows {
		if !windows[i].Full() {
			return nil, fmt.Errorf("sim: window %d not full after warm-up", i)
		}
	}

	comm := &counter{res: res}
	// truth is the function of the dataset-side global average x̄.
	avg := make([]float64, cfg.F.Dim())
	truth := func() float64 { return cfg.F.Value(linalg.Mean(avg, vectors(windows)...)) }
	var mon monitor
	var am *autoMon
	start := 0
	switch cfg.Algorithm {
	case Centralization:
		mon = centralization{comm: comm}
	case Periodic:
		if cfg.Period <= 0 {
			return nil, fmt.Errorf("sim: periodic baseline requires Period > 0")
		}
		res.Algorithm = fmt.Sprintf("periodic-%d", cfg.Period)
		mon = &periodic{comm: comm, windows: windows, period: cfg.Period, est: truth()}
	default:
		var err error
		if am, start, err = newAutoMon(cfg, res, comm, windows); err != nil {
			return nil, err
		}
		mon = am
		if cfg.Algorithm == Hybrid {
			mon = &hybrid{autoMon: am, comm: comm, windows: windows, startMsgs: res.Messages,
				startRound: start, budget: hybridTrial, centralRounds: hybridWindow}
		}
	}

	ds := cfg.Data
	for r := start; r < ds.Rounds; r++ {
		for i := 0; i < ds.Nodes; i++ {
			s := ds.Sample(r, i)
			if s == nil {
				continue
			}
			windows[i].Push(s)
			if err := mon.update(i, windows[i].Vector()); err != nil {
				return nil, err
			}
		}
		exact := truth()
		res.observe(cfg, mon.estimate(r, exact), exact)
		if err := mon.endRound(r); err != nil {
			return nil, err
		}
	}
	if am != nil {
		am.finish(res)
	}
	res.finalize(cfg.Trace)
	return res, nil
}

// vectors returns every window's current vector.
func vectors(windows []stream.Windower) [][]float64 {
	vecs := make([][]float64, len(windows))
	for i, w := range windows {
		vecs[i] = w.Vector()
	}
	return vecs
}

func (r *Result) observe(cfg Config, est, truth float64) {
	e := math.Abs(est - truth)
	r.ErrTrace = append(r.ErrTrace, e)
	if cfg.Trace {
		r.EstTrace = append(r.EstTrace, est)
		r.TrueTrace = append(r.TrueTrace, truth)
		r.CumMessages = append(r.CumMessages, r.Messages)
	}
	if e > cfg.Core.Epsilon {
		r.MissedRounds++
	}
}

// finalize computes the error aggregates from the per-round series.
func (r *Result) finalize(trace bool) {
	errs := r.ErrTrace
	r.Rounds = len(errs)
	if len(errs) == 0 {
		return
	}
	var sum float64
	for _, e := range errs {
		sum += e
		if e > r.MaxErr {
			r.MaxErr = e
		}
	}
	r.MeanErr = sum / float64(len(errs))
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	r.P99Err = sorted[int(0.99*float64(len(sorted)-1))]
	if !trace {
		r.ErrTrace = nil
	}
}
