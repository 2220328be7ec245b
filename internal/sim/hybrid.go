package sim

import (
	"automon/internal/core"
	"automon/internal/stream"
)

// hybridWindow is the Hybrid algorithm's message-budget window, in rounds.
const hybridWindow = 50

// runHybrid implements the §6 "switch on the fly" extension: monitor with
// AutoMon, but track the message rate over a sliding budget window; if a
// window costs more than centralization would (one message per active node
// per round), fall back to centralization for one window, then re-engage
// AutoMon with a full resync. The estimate is exact during fallback.
func runHybrid(cfg Config, res *Result, windows []stream.Windower) (*Result, error) {
	ds := cfg.Data
	n := ds.Nodes

	g := core.NewGroup(cfg.F, vectors(windows))
	comm := newCounter(cfg, res)
	g.OnMessage = comm.count
	coord := core.NewCoordinator(cfg.F, n, cfg.Core, g)
	if err := g.Start(coord); err != nil {
		return nil, err
	}

	avg := make([]float64, cfg.F.Dim())
	centralized := false
	windowStartMsgs := res.Messages
	windowStartRound := 0
	activeInWindow := 0

	// Re-engagement uses a short trial window and exponential backoff: each
	// failed trial doubles the next centralized stretch (capped), so a
	// persistently churny regime converges to near-centralization cost
	// while a calmed-down stream returns to AutoMon quickly.
	const trial = hybridWindow / 4
	centralRounds := hybridWindow
	budgetWindow := trial

	for r := 0; r < ds.Rounds; r++ {
		active := 0
		for i := 0; i < n; i++ {
			s := ds.Sample(r, i)
			if s == nil {
				continue
			}
			active++
			windows[i].Push(s)
			if centralized {
				// Fallback: every update is shipped, exactly like the
				// centralization baseline.
				comm.count(&core.DataResponse{NodeID: i, X: windows[i].Vector()})
				continue
			}
			if err := g.Step(i, windows[i].Vector()); err != nil {
				return nil, err
			}
		}
		activeInWindow += active

		trueAverage(avg, windows)
		truth := cfg.F.Value(avg)
		est := coord.Estimate()
		if centralized {
			est = truth // the coordinator sees every update
		}
		res.observe(cfg, est, truth, cfg.Trace)

		// Budget check at window boundaries.
		if r-windowStartRound+1 >= budgetWindow {
			spent := res.Messages - windowStartMsgs
			if centralized {
				// Fallback stretch over: try AutoMon again with fresh zones.
				for i := range windows {
					g.SetData(i, windows[i].Vector())
				}
				if err := coord.Resync(); err != nil {
					return nil, err
				}
				centralized = false
				budgetWindow = trial
			} else if spent > activeInWindow {
				// The trial failed: centralize, with backoff.
				centralized = true
				budgetWindow = centralRounds
				if centralRounds < 8*hybridWindow {
					centralRounds *= 2
				}
			} else {
				// AutoMon is paying for itself; relax the backoff.
				centralRounds = hybridWindow
				budgetWindow = trial
			}
			windowStartMsgs = res.Messages
			windowStartRound = r + 1
			activeInWindow = 0
		}
	}
	res.RefusedSyncs = g.RefusedSyncs
	res.Stats = coord.Stats()
	res.TunedR = coord.R()
	res.FinalR = coord.R()
	res.finalize(cfg.Trace)
	return res, nil
}
