package core

import (
	"errors"
	"fmt"
	"sync"
)

// TuningData is a replayable prefix of the monitoring task: per round, the
// local vector of every node (rounds × nodes × dim). The first round also
// provides the initial vectors for the protocol's initial full sync.
type TuningData [][][]float64

// Validate checks the data is rectangular and matches the function.
func (t TuningData) Validate(f *Function, n int) error {
	if len(t) < 2 {
		return errors.New("core: tuning data needs at least two rounds")
	}
	for r, round := range t {
		if len(round) != n {
			return fmt.Errorf("core: tuning round %d has %d nodes, want %d", r, len(round), n)
		}
		for i, v := range round {
			if len(v) != f.Dim() {
				return fmt.Errorf("core: tuning round %d node %d has dim %d, want %d", r, i, len(v), f.Dim())
			}
		}
	}
	return nil
}

// ReplayCounts reports the violations observed while replaying a dataset.
type ReplayCounts struct {
	Neighborhood int
	SafeZone     int
	Faulty       int
}

// Total returns the combined violation count minimized by Algorithm 2.
func (r ReplayCounts) Total() int { return r.Neighborhood + r.SafeZone + r.Faulty }

// Replay monitors the dataset with the given configuration and returns the
// violation counts. It is the "monitor with r" primitive of Algorithm 2.
func Replay(f *Function, data TuningData, n int, cfg Config) (ReplayCounts, error) {
	if err := data.Validate(f, n); err != nil {
		return ReplayCounts{}, err
	}
	g := NewGroup(f, data[0])
	if err := g.Start(NewCoordinator(f, n, cfg, g)); err != nil {
		return ReplayCounts{}, err
	}
	for _, round := range data[1:] {
		for i, x := range round {
			if err := g.Step(i, x); err != nil {
				return ReplayCounts{}, err
			}
		}
	}
	stats := g.Mon.Stats()
	return ReplayCounts{
		Neighborhood: stats.NeighborhoodViolations,
		SafeZone:     stats.SafeZoneViolations,
		Faulty:       stats.FaultyViolations,
	}, nil
}

// ErrBracketNotConverged is returned by Tune when neither end of the
// bracketing range reached its zero-violation goal within the halving
// budget: lo still sees safe-zone violations and hi still sees neighborhood
// violations. The TuneResult is still populated (with the best grid point
// over the degenerate bracket), so callers may inspect it, but a radius
// picked from such a bracket carries no Algorithm-2 quality argument.
var ErrBracketNotConverged = errors.New("core: tuning bracket did not converge at either end")

// TuneResult reports the outcome of the neighborhood-size tuning procedure.
type TuneResult struct {
	R          float64        // recommended neighborhood size r̂
	Lo, Hi     float64        // bracketing range searched
	Counts     ReplayCounts   // violations at the chosen r
	Replays    int            // number of monitoring replays performed (memoized reruns excluded)
	GridCounts []ReplayCounts // violation counts on the final grid
	GridR      []float64      // the grid itself

	// LoConverged reports whether lo eliminated safe-zone violations, and
	// HiConverged whether hi eliminated neighborhood violations, within the
	// halving budget. When both are false Tune also returns
	// ErrBracketNotConverged; when only one is false the bracket is usable
	// but one-sided, and the caller may want a larger tuning prefix.
	LoConverged bool
	HiConverged bool
}

// Tune implements Algorithm 2 (Neighborhood Size Tuning): bracket a range
// [lo, hi] where lo is small enough to eliminate safe-zone violations and hi
// large enough to eliminate neighborhood violations, then grid-search ten
// sizes in between for the fewest total violations. cfg.R is ignored.
//
// Replays are memoized on r: the bracket endpoints are re-visited by the
// grid (and phase 2 starts from phase 1's last b), so without memoization
// the same monitoring replay — by far the dominant cost — would run up to
// three times for the same radius.
func Tune(f *Function, data TuningData, n int, cfg Config) (TuneResult, error) {
	if err := data.Validate(f, n); err != nil {
		return TuneResult{}, err
	}
	replay := func(r float64) (ReplayCounts, error) {
		c := cfg
		c.R = r
		// Tuning replays are throwaway probe runs, not the monitored
		// deployment: give each its own private instruments. With a shared
		// registry the get-or-create semantics would hand every replay's
		// coordinator the same automon_coordinator_* counters, so the
		// bracketing search would read violation counts accumulated across
		// all prior replays (hi could never reach Neighborhood == 0) and the
		// caller's scrape would absorb the probes' events.
		c.Metrics = nil
		c.Tracer = nil
		// A probe run evaluating a candidate r must hold that r fixed: with
		// the adaptive controller live inside a replay, probes would retune —
		// and therefore Tune — recursively, and the violation counts would no
		// longer describe the candidate radius.
		c.AdaptiveR = false
		return Replay(f, data, n, c)
	}
	if cfg.TuneWorkers > 1 {
		return tuneWithWorkers(replay, cfg.TuneWorkers)
	}
	return tuneWith(replay)
}

// tuneWith is Tune's search logic over an abstract replay primitive; tests
// drive it with synthetic violation profiles.
func tuneWith(replay func(r float64) (ReplayCounts, error)) (TuneResult, error) {
	const maxHalvings = 20
	res := TuneResult{}

	memo := make(map[float64]ReplayCounts)
	run := func(r float64) (ReplayCounts, error) {
		if counts, ok := memo[r]; ok {
			return counts, nil
		}
		counts, err := replay(r)
		if err != nil {
			return counts, err
		}
		res.Replays++
		memo[r] = counts
		return counts, nil
	}

	// Phase 1: find b with neighborhood violations, starting from 1.
	b := 1.0
	var counts ReplayCounts
	var err error
	for i := 0; i < maxHalvings; i++ {
		counts, err = run(b)
		if err != nil {
			return res, err
		}
		if counts.Neighborhood > 0 {
			break
		}
		b /= 2
	}

	// Phase 2: push lo down until safe-zone violations vanish, and hi up
	// until neighborhood violations vanish. Either loop can exhaust its
	// halving budget without reaching the goal; that is recorded instead of
	// silently proceeding with a bad bracket.
	lo, hi := b, b
	for i := 0; i < maxHalvings; i++ {
		counts, err = run(lo)
		if err != nil {
			return res, err
		}
		if counts.SafeZone == 0 {
			res.LoConverged = true
			break
		}
		if i < maxHalvings-1 {
			lo /= 2
		}
	}
	for i := 0; i < maxHalvings; i++ {
		counts, err = run(hi)
		if err != nil {
			return res, err
		}
		if counts.Neighborhood == 0 {
			res.HiConverged = true
			break
		}
		if i < maxHalvings-1 {
			hi *= 2
		}
	}

	// Phase 3: grid search for the minimum total violations.
	res.Lo, res.Hi = lo, hi
	const gridSize = 10
	bestR := lo
	bestCounts := ReplayCounts{Neighborhood: 1 << 30}
	for i := 0; i < gridSize; i++ {
		r := lo + (hi-lo)*float64(i)/float64(gridSize-1)
		if r <= 0 {
			continue
		}
		counts, err = run(r)
		if err != nil {
			return res, err
		}
		res.GridR = append(res.GridR, r)
		res.GridCounts = append(res.GridCounts, counts)
		if counts.Total() < bestCounts.Total() {
			bestCounts = counts
			bestR = r
		}
	}
	res.R = bestR
	res.Counts = bestCounts
	if !res.LoConverged && !res.HiConverged {
		return res, ErrBracketNotConverged
	}
	return res, nil
}

// tuneWithWorkers is tuneWith with speculative parallel replays. Each phase
// of Algorithm 2 probes a radius sequence known in advance (halvings,
// doublings, the grid), so the search evaluates them in waves of `workers`
// concurrent replays and then scans the results in sequence order. The
// scan applies exactly the sequential stopping rules, so R, Lo, Hi, the
// grid, and the convergence flags are identical to tuneWith for the same
// replay primitive; only Replays can be larger, counting the speculative
// probes past each phase's stopping point.
func tuneWithWorkers(replay func(r float64) (ReplayCounts, error), workers int) (TuneResult, error) {
	const maxHalvings = 20
	res := TuneResult{}
	memo := make(map[float64]ReplayCounts)

	// runBatch replays every radius in rs not yet memoized, at most workers
	// at a time, and surfaces the error of the lowest-index failure — what a
	// sequential loop over rs would have returned first. The memo is only
	// touched after the batch fully drains, so it needs no lock.
	runBatch := func(rs []float64) error {
		todo := make([]float64, 0, len(rs))
		seen := make(map[float64]bool, len(rs))
		for _, r := range rs {
			if _, ok := memo[r]; !ok && !seen[r] {
				todo = append(todo, r)
				seen[r] = true
			}
		}
		if len(todo) == 0 {
			return nil
		}
		counts := make([]ReplayCounts, len(todo))
		errs := make([]error, len(todo))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, r := range todo {
			wg.Add(1)
			//automon:allow statepure bounded replay worker pool joined before return; results are indexed per replay and bit-identical at any worker count
			go func(i int, r float64) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				counts[i], errs[i] = replay(r)
			}(i, r)
		}
		wg.Wait()
		for i, r := range todo {
			if errs[i] != nil {
				return errs[i]
			}
			res.Replays++
			memo[r] = counts[i]
		}
		return nil
	}

	// scan batches seq in waves and returns the first radius satisfying
	// done, mirroring a sequential walk of seq with early exit.
	scan := func(seq []float64, done func(ReplayCounts) bool) (float64, bool, error) {
		for w := 0; w < len(seq); w += workers {
			end := min(w+workers, len(seq))
			if err := runBatch(seq[w:end]); err != nil {
				return 0, false, err
			}
			for _, r := range seq[w:end] {
				if done(memo[r]) {
					return r, true, nil
				}
			}
		}
		return 0, false, nil
	}

	// Phase 1: find b with neighborhood violations, starting from 1. When no
	// candidate triggers, the sequential loop leaves b one halving past the
	// last (never-replayed) candidate.
	bs := make([]float64, maxHalvings)
	v := 1.0
	for i := range bs {
		bs[i] = v
		v /= 2
	}
	b := v
	if r, ok, err := scan(bs, func(c ReplayCounts) bool { return c.Neighborhood > 0 }); err != nil {
		return res, err
	} else if ok {
		b = r
	}

	// Phase 2: push lo down until safe-zone violations vanish, hi up until
	// neighborhood violations vanish. The sequential loops skip the final
	// halving/doubling, so an unconverged end stops at b·2^∓(maxHalvings−1).
	lo, hi := b, b
	los := make([]float64, maxHalvings)
	his := make([]float64, maxHalvings)
	vLo, vHi := b, b
	for i := 0; i < maxHalvings; i++ {
		los[i], his[i] = vLo, vHi
		vLo /= 2
		vHi *= 2
	}
	if r, ok, err := scan(los, func(c ReplayCounts) bool { return c.SafeZone == 0 }); err != nil {
		return res, err
	} else if ok {
		lo = r
		res.LoConverged = true
	} else {
		lo = los[maxHalvings-1]
	}
	if r, ok, err := scan(his, func(c ReplayCounts) bool { return c.Neighborhood == 0 }); err != nil {
		return res, err
	} else if ok {
		hi = r
		res.HiConverged = true
	} else {
		hi = his[maxHalvings-1]
	}

	// Phase 3: grid search for the minimum total violations, all points in
	// one batch.
	res.Lo, res.Hi = lo, hi
	const gridSize = 10
	grid := make([]float64, 0, gridSize)
	for i := 0; i < gridSize; i++ {
		r := lo + (hi-lo)*float64(i)/float64(gridSize-1)
		if r <= 0 {
			continue
		}
		grid = append(grid, r)
	}
	if err := runBatch(grid); err != nil {
		return res, err
	}
	bestR := lo
	bestCounts := ReplayCounts{Neighborhood: 1 << 30}
	for _, r := range grid {
		counts := memo[r]
		res.GridR = append(res.GridR, r)
		res.GridCounts = append(res.GridCounts, counts)
		if counts.Total() < bestCounts.Total() {
			bestCounts = counts
			bestR = r
		}
	}
	res.R = bestR
	res.Counts = bestCounts
	if !res.LoConverged && !res.HiConverged {
		return res, ErrBracketNotConverged
	}
	return res, nil
}
