// Package sim is the discrete-event simulation harness of §4.1: it replays a
// dataset against a monitoring algorithm on a single machine while counting
// every message and byte that would cross the network, and tracking the
// approximation error of the coordinator's estimate against the true
// function of the global average. All of the paper's simulated experiments
// (Figures 3–9) are driven through this package.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"automon/internal/core"
	"automon/internal/linalg"
	"automon/internal/obs"
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

	// Elide enables safe-zone check elision for the AutoMon algorithm: each
	// round a node spends its cached distance-to-boundary budget by the
	// window vector's exact movement and re-runs the safe-zone check only
	// once the budget is exhausted (or a protocol event reset it). Protocol
	// outcomes are bit-identical to the per-round path. Requires F to carry
	// a curvature bound (constant Hessian or WithCurvature); Run fails
	// loudly otherwise.
	Elide bool

	// Shards > 0 runs the AutoMon algorithm through a hierarchical sharded
	// coordinator (internal/shard) with that many leaf shards instead of the
	// flat one. In the default routing mode the run is bit-identical to a
	// flat run over the same stream (the differential suite asserts it); with
	// ShardAbsorb leaves absorb safe-zone violations locally and the run is
	// ε-correct but not bitwise comparable. Only meaningful for AutoMon.
	Shards int
	// TreeFanout bounds the children per interior shard tier; 0 means
	// shard.DefaultFanout.
	TreeFanout int
	// ShardAbsorb selects shard.ModeAbsorb for a sharded run.
	ShardAbsorb bool
	// ShardChaos, when set on a sharded run, is invoked at the start of every
	// monitored round with the round index and the live tree — the
	// fault-injection hook chaos tests use to kill and rejoin whole sub-trees
	// mid-stream.
	ShardChaos func(round int, tree *shard.Tree)

	// Trace records per-round estimate/true/error series and the cumulative
	// message count (used by the time-series figures).
	Trace bool

	// Metrics, when set, exposes the run's traffic counters under
	// automon_sim_* names (and is handed to the core coordinator unless
	// Core.Metrics is already set). Because registration is get-or-create,
	// two runs sharing a registry without distinguishing MetricsLabels share
	// (and accumulate into) the same counters.
	Metrics *obs.Registry
	// MetricsLabels is the label set stamped on this run's automon_sim_*
	// metrics, e.g. `alg="automon",fn="inner_product"`.
	MetricsLabels string
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
	// elision budget skipped (Elide runs only; zero otherwise).
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
// (centralization, periodic, hybrid fallback) call count directly. The counts
// live in obs counters and the Result fields are refreshed from them on every
// count, so a registry scrape and the Result can never disagree.
type counter struct {
	res *Result

	reg     *obs.Registry
	lbl     func(extra string) string
	msgs    *obs.Counter
	payload *obs.Counter
	byType  map[core.MsgType]*obs.Counter
}

// newCounter wires the counters, registering them when the run has a
// registry.
func newCounter(cfg Config, res *Result) *counter {
	// Per-metric labels come first, run-wide MetricsLabels after — the same
	// convention transport.Bind uses ({dir=...,side=...}).
	lbl := func(extra string) string {
		set := extra
		if cfg.MetricsLabels != "" {
			if set != "" {
				set += ","
			}
			set += cfg.MetricsLabels
		}
		if set == "" {
			return ""
		}
		return "{" + set + "}"
	}
	c := &counter{
		res:    res,
		reg:    cfg.Metrics,
		lbl:    lbl,
		byType: make(map[core.MsgType]*obs.Counter),
	}
	c.msgs = simCounter(cfg.Metrics, "automon_sim_messages_total"+lbl(""),
		"Messages the simulated run would place on the network.")
	c.payload = simCounter(cfg.Metrics, "automon_sim_payload_bytes_total"+lbl(""),
		"Encoded payload bytes of the simulated run.")
	// Pre-register the known types so a scrape shows them at zero even
	// before the first message; typeCounter creates any type not listed
	// here on first sight, so new message types are never silently dropped.
	for _, t := range []core.MsgType{
		core.MsgViolation, core.MsgDataRequest, core.MsgDataResponse,
		core.MsgSync, core.MsgSlack, core.MsgRejoin,
		core.MsgPartial, core.MsgSubtreeRejoin,
	} {
		c.typeCounter(t)
	}
	return c
}

// typeCounter returns the per-message-type counter, creating (and, when the
// run has a registry, registering) it on first use.
func (c *counter) typeCounter(t core.MsgType) *obs.Counter {
	if ctr, ok := c.byType[t]; ok {
		return ctr
	}
	ctr := simCounter(c.reg,
		fmt.Sprintf("automon_sim_messages_by_type_total%s", c.lbl(fmt.Sprintf("type=%q", t))),
		"Simulated messages broken down by protocol message type.")
	c.byType[t] = ctr
	return ctr
}

// simCounter is the registry-or-standalone counter helper for this package.
func simCounter(reg *obs.Registry, name, help string) *obs.Counter {
	if c := reg.Counter(name, help); c != nil {
		return c
	}
	return obs.NewCounter()
}

func (c *counter) count(m core.Message) {
	t := m.Type()
	ctr := c.typeCounter(t)
	c.msgs.Inc()
	ctr.Inc()
	c.payload.Add(int64(len(m.Encode())))
	// The Result fields are views: always re-read from the counters.
	c.res.Messages = int(c.msgs.Load())
	c.res.MessagesByType[t] = int(ctr.Load())
	c.res.PayloadBytes = int(c.payload.Load())
}

// Run executes one monitoring run and returns its statistics.
func Run(cfg Config) (*Result, error) {
	if cfg.F == nil || cfg.Data == nil {
		return nil, fmt.Errorf("sim: config requires F and Data")
	}
	res := &Result{
		Algorithm:      cfg.Algorithm.String(),
		Function:       cfg.F.Name,
		MessagesByType: make(map[core.MsgType]int),
	}
	if cfg.Algorithm == Periodic {
		res.Algorithm = fmt.Sprintf("periodic-%d", cfg.Period)
	}

	if cfg.Core.Metrics == nil {
		cfg.Core.Metrics = cfg.Metrics
	}
	windows := cfg.Data.FilledWindows()
	for i := range windows {
		if !windows[i].Full() {
			return nil, fmt.Errorf("sim: window %d not full after warm-up", i)
		}
	}

	switch cfg.Algorithm {
	case Centralization:
		return runCentralization(cfg, res, windows)
	case Periodic:
		return runPeriodic(cfg, res, windows)
	case Hybrid:
		return runHybrid(cfg, res, windows)
	}
	return runAutoMon(cfg, res, windows)
}

// vectors returns every window's current vector.
func vectors(windows []stream.Windower) [][]float64 {
	vecs := make([][]float64, len(windows))
	for i, w := range windows {
		vecs[i] = w.Vector()
	}
	return vecs
}

// trueAverage computes the dataset-side ground truth x̄ from the windows.
func trueAverage(dst []float64, windows []stream.Windower) {
	linalg.Mean(dst, vectors(windows)...)
}

func (r *Result) observe(cfg Config, est, truth float64, trace bool) {
	e := math.Abs(est - truth)
	r.ErrTrace = append(r.ErrTrace, e)
	if trace {
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

func runAutoMon(cfg Config, res *Result, windows []stream.Windower) (*Result, error) {
	ds := cfg.Data
	n := ds.Nodes
	g := core.NewGroup(cfg.F, vectors(windows))
	g.OnMessage = newCounter(cfg, res).count
	if cfg.Elide && !g.EnableElision() {
		return nil, fmt.Errorf("sim: elision needs a curvature bound for %s (constant Hessian or WithCurvature)", cfg.F.Name)
	}

	startRound := 0
	coreCfg := cfg.Core
	needsTuning := cfg.TuneRounds > 0 && coreCfg.R == 0 &&
		!coreCfg.DisableADCD && coreCfg.ZoneBuilder == nil && !cfg.F.HasConstantHessian()
	if needsTuning {
		// The tuning replay is the first TuneRounds monitored rounds; the real
		// windows advance through it (the tuning prefix is consumed, as in
		// §4.2).
		startRound = min(cfg.TuneRounds, ds.Rounds)
		tuneData := core.TuningData(ds.Snapshots(windows, 0, startRound))
		tuned, err := core.Tune(cfg.F, tuneData, n, coreCfg)
		if errors.Is(err, core.ErrBracketNotConverged) {
			res.TuneUnconverged = true
		} else if err != nil {
			return nil, fmt.Errorf("sim: neighborhood tuning: %w", err)
		}
		coreCfg.R = tuned.R
		res.TunedR = tuned.R
		for i := range windows {
			g.SetData(i, windows[i].Vector())
		}
	}

	// The flat coordinator and the sharded tree expose the same monitor
	// surface; which one runs is purely a topology choice.
	var mon core.Monitor
	var tree *shard.Tree
	if cfg.Shards > 0 {
		mode := shard.ModeRoute
		if cfg.ShardAbsorb {
			mode = shard.ModeAbsorb
		}
		var err error
		tree, err = shard.NewTree(cfg.F, n, coreCfg, g, shard.Options{
			Shards: cfg.Shards,
			Fanout: cfg.TreeFanout,
			Mode:   mode,
		})
		if err != nil {
			return nil, err
		}
		mon = tree
	} else {
		mon = core.NewCoordinator(cfg.F, n, coreCfg, g)
	}
	if err := g.Start(mon); err != nil {
		return nil, err
	}

	avg := make([]float64, cfg.F.Dim())
	for r := startRound; r < ds.Rounds; r++ {
		if tree != nil && cfg.ShardChaos != nil {
			cfg.ShardChaos(r, tree)
		}
		for i := 0; i < n; i++ {
			s := ds.Sample(r, i)
			if s == nil {
				continue
			}
			windows[i].Push(s)
			v := g.Update(i, windows[i].Vector())
			if v == nil {
				continue
			}
			if tree != nil && !tree.Live(i) {
				// A node in a killed sub-tree is partitioned away from the
				// coordinator: its window keeps evolving but its violations
				// never reach the wire until the sub-tree rejoins.
				continue
			}
			if err := g.Resolve(v); err != nil {
				return nil, err
			}
		}
		trueAverage(avg, windows)
		res.observe(cfg, mon.Estimate(), cfg.F.Value(avg), cfg.Trace)
	}
	res.ElidedChecks = g.Elided
	res.RefusedSyncs = g.RefusedSyncs
	res.Stats = mon.Stats()
	res.FinalR = mon.R()
	if res.TunedR == 0 {
		res.TunedR = mon.R()
	}
	res.finalize(cfg.Trace)
	return res, nil
}

func runCentralization(cfg Config, res *Result, windows []stream.Windower) (*Result, error) {
	ds := cfg.Data
	comm := newCounter(cfg, res)
	avg := make([]float64, cfg.F.Dim())
	for r := 0; r < ds.Rounds; r++ {
		for i := 0; i < ds.Nodes; i++ {
			s := ds.Sample(r, i)
			if s == nil {
				continue
			}
			windows[i].Push(s)
			comm.count(&core.DataResponse{NodeID: i, X: windows[i].Vector()})
		}
		trueAverage(avg, windows)
		truth := cfg.F.Value(avg)
		res.observe(cfg, truth, truth, cfg.Trace) // exact estimate
	}
	res.finalize(cfg.Trace)
	return res, nil
}

func runPeriodic(cfg Config, res *Result, windows []stream.Windower) (*Result, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("sim: periodic baseline requires Period > 0")
	}
	ds := cfg.Data
	comm := newCounter(cfg, res)
	avg := make([]float64, cfg.F.Dim())
	trueAverage(avg, windows)
	est := cfg.F.Value(avg)
	for r := 0; r < ds.Rounds; r++ {
		for i := 0; i < ds.Nodes; i++ {
			if s := ds.Sample(r, i); s != nil {
				windows[i].Push(s)
			}
		}
		if (r+1)%cfg.Period == 0 {
			for i := 0; i < ds.Nodes; i++ {
				comm.count(&core.DataResponse{NodeID: i, X: windows[i].Vector()})
			}
			trueAverage(avg, windows)
			est = cfg.F.Value(avg)
		}
		trueAverage(avg, windows)
		res.observe(cfg, est, cfg.F.Value(avg), cfg.Trace)
	}
	res.finalize(cfg.Trace)
	return res, nil
}
