package sim

import (
	"errors"
	"fmt"

	"automon/internal/core"
	"automon/internal/shard"
	"automon/internal/stream"
)

// monitor is one algorithm inside Run's round loop.
type monitor interface {
	// update hands node i its new local vector.
	update(i int, x []float64) error
	// estimate is what the coordinator believes after round r; truth is
	// the exact value the estimate is measured against.
	estimate(r int, truth float64) float64
	// endRound runs the algorithm's policy step once round r is observed.
	endRound(r int) error
}

// noPolicy is the baselines' endRound: they have no policy step.
type noPolicy struct{}

func (noPolicy) endRound(int) error { return nil }

// centralization ships every update: zero error, maximal communication.
type centralization struct {
	comm *counter
	noPolicy
}

func (c centralization) update(i int, x []float64) error {
	c.comm.count(&core.DataResponse{NodeID: i, X: x})
	return nil
}

func (centralization) estimate(_ int, truth float64) float64 { return truth }

// periodic ships every window each period rounds and holds the last exact
// value between ships.
type periodic struct {
	comm    *counter
	windows []stream.Windower
	period  int
	est     float64
	noPolicy
}

func (*periodic) update(int, []float64) error { return nil }

func (p *periodic) estimate(r int, truth float64) float64 {
	if (r+1)%p.period == 0 {
		for i, w := range p.windows {
			p.comm.count(&core.DataResponse{NodeID: i, X: w.Vector()})
		}
		p.est = truth
	}
	return p.est
}

// autoMon runs the protocol of internal/core over a flat coordinator or a
// shard tree; which one runs is purely a topology choice.
type autoMon struct {
	g     *core.Group
	mon   core.Monitor
	tree  *shard.Tree
	chaos func(round int, tree *shard.Tree)
}

// newAutoMon builds the Group with its elision hook, runs the tuning prefix,
// builds the flat coordinator or the tree and starts it. It returns the first
// monitored round: the tuning prefix is consumed, as in §4.2.
func newAutoMon(cfg Config, res *Result, comm *counter, windows []stream.Windower) (*autoMon, int, error) {
	ds := cfg.Data
	g := core.NewGroup(cfg.F, vectors(windows))
	g.OnMessage = comm.count
	if cfg.elide && !g.EnableElision() {
		return nil, 0, fmt.Errorf("sim: elision needs a curvature bound for %s (constant Hessian or WithCurvature)", cfg.F.Name)
	}

	start := 0
	coreCfg := cfg.Core
	if cfg.TuneRounds > 0 && coreCfg.R == 0 &&
		!coreCfg.DisableADCD && coreCfg.ZoneBuilder == nil && !cfg.F.HasConstantHessian() {
		// The tuning replay is the first TuneRounds monitored rounds; the real
		// windows advance through it.
		start = min(cfg.TuneRounds, ds.Rounds)
		tuneData := core.TuningData(ds.Snapshots(windows, 0, start))
		tuned, err := core.Tune(cfg.F, tuneData, ds.Nodes, coreCfg)
		if errors.Is(err, core.ErrBracketNotConverged) {
			res.TuneUnconverged = true
		} else if err != nil {
			return nil, 0, fmt.Errorf("sim: neighborhood tuning: %w", err)
		}
		coreCfg.R = tuned.R
		res.TunedR = tuned.R
		for i := range windows {
			g.SetData(i, windows[i].Vector())
		}
	}

	a := &autoMon{g: g}
	var fabric core.NodeComm = g
	wrap := func(m core.Monitor) core.Monitor { return m }
	if cfg.lend != nil {
		fabric, wrap = cfg.lend(g)
	}
	if cfg.Shards > 0 {
		mode := shard.ModeRoute
		if cfg.ShardAbsorb {
			mode = shard.ModeAbsorb
		}
		tree, err := shard.NewTree(cfg.F, ds.Nodes, coreCfg, fabric,
			shard.Options{Shards: cfg.Shards, Fanout: cfg.TreeFanout, Mode: mode})
		if err != nil {
			return nil, 0, err
		}
		a.mon, a.tree, a.chaos = tree, tree, cfg.shardChaos
	} else {
		a.mon = core.NewCoordinator(cfg.F, ds.Nodes, coreCfg, fabric)
	}
	if err := g.Start(wrap(a.mon)); err != nil {
		return nil, 0, err
	}
	if a.chaos != nil {
		a.chaos(start, a.tree)
	}
	return a, start, nil
}

func (a *autoMon) update(i int, x []float64) error {
	v := a.g.Update(i, x)
	if v == nil || (a.tree != nil && !a.tree.Live(i)) {
		// A node in a killed sub-tree is partitioned away from the
		// coordinator: its window keeps evolving but its violations never
		// reach the wire until the sub-tree rejoins.
		return nil
	}
	return a.g.Resolve(v)
}

func (a *autoMon) estimate(int, float64) float64 { return a.mon.Estimate() }

// endRound hands the next round to the chaos hook.
func (a *autoMon) endRound(r int) error {
	if a.chaos != nil {
		a.chaos(r+1, a.tree)
	}
	return nil
}

// finish copies the protocol's counters into the Result.
func (a *autoMon) finish(res *Result) {
	res.ElidedChecks = a.g.Elided
	res.RefusedSyncs = a.g.RefusedSyncs
	res.Stats = a.mon.Stats()
	res.FinalR = a.mon.R()
	if res.TunedR == 0 {
		res.TunedR = res.FinalR
	}
}

// hybridWindow is the Hybrid algorithm's message-budget window, in rounds,
// and hybridTrial the shorter window a re-engaged AutoMon is judged on.
const (
	hybridWindow = 50
	hybridTrial  = hybridWindow / 4
)

// hybrid is the §6 "switch on the fly" extension: AutoMon, with the message
// rate tracked over a budget window. A window that costs more than
// centralization would (one message per active node per round) falls back to
// centralization, exact meanwhile, then AutoMon re-engages with a full
// resync. Each failed trial doubles the next centralized stretch (capped), so
// a persistently churny regime converges to near-centralization cost while a
// calmed-down stream returns to AutoMon quickly.
type hybrid struct {
	*autoMon
	comm          *counter
	windows       []stream.Windower
	centralized   bool
	startMsgs     int // messages when the current budget window opened
	startRound    int // first round of the current budget window
	active        int // node updates in the current budget window
	budget        int // length of the current budget window
	centralRounds int // length of the next centralized stretch
}

func (h *hybrid) update(i int, x []float64) error {
	h.active++
	if h.centralized {
		// Fallback: every update is shipped, exactly like the
		// centralization baseline.
		h.comm.count(&core.DataResponse{NodeID: i, X: x})
		return nil
	}
	return h.autoMon.update(i, x)
}

func (h *hybrid) estimate(r int, truth float64) float64 {
	if h.centralized {
		return truth // the coordinator sees every update
	}
	return h.autoMon.estimate(r, truth)
}

// endRound checks the budget at window boundaries.
func (h *hybrid) endRound(r int) error {
	if r-h.startRound+1 >= h.budget {
		switch spent := h.comm.res.Messages - h.startMsgs; {
		case h.centralized:
			// Fallback stretch over: try AutoMon again with fresh zones.
			for i, w := range h.windows {
				h.g.SetData(i, w.Vector())
			}
			if err := h.mon.Resync(); err != nil {
				return err
			}
			h.centralized = false
			h.budget = hybridTrial
		case spent > h.active:
			// The trial failed: centralize, with backoff.
			h.centralized = true
			h.budget = h.centralRounds
			if h.centralRounds < 8*hybridWindow {
				h.centralRounds *= 2
			}
		default:
			// AutoMon is paying for itself; relax the backoff.
			h.centralRounds = hybridWindow
			h.budget = hybridTrial
		}
		h.startMsgs, h.startRound, h.active = h.comm.res.Messages, r+1, 0
	}
	return h.autoMon.endRound(r)
}
