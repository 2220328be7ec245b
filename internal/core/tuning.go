package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"automon/internal/optimize"
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
// three times for the same radius. Replays run on cfg.Detached(), in waves of
// one radius per core (GOMAXPROCS); the result does not depend on the width.
func Tune(f *Function, data TuningData, n int, cfg Config) (TuneResult, error) {
	if err := data.Validate(f, n); err != nil {
		return TuneResult{}, err
	}
	probe := cfg.Detached()
	return tuneWaves(func(r float64) (ReplayCounts, error) {
		c := probe
		c.R = r
		return Replay(f, data, n, c)
	}, runtime.GOMAXPROCS(0))
}

// tuneWaves is Tune's search logic over an abstract replay primitive; tests
// drive it with synthetic violation profiles. Each phase of Algorithm 2
// probes a radius sequence known in advance (halvings, doublings, the grid),
// so the search replays it in waves of `workers` concurrent radii and then
// scans the results in sequence order, applying exactly the stopping rules of
// a one-radius-at-a-time walk. R, Lo, Hi, the grid and the convergence flags
// are therefore identical at every wave width; only Replays grows with it,
// counting the speculative probes past each phase's stopping point. On error
// the returned TuneResult is not meaningful: a failing wave's successful
// replays are neither counted in Replays nor memoized.
func tuneWaves(replay func(r float64) (ReplayCounts, error), workers int) (TuneResult, error) {
	const maxHalvings = 20
	res := TuneResult{}
	memo := make(map[float64]ReplayCounts)

	// runWave replays every radius of one wave not yet memoized, one
	// goroutine per radius, and surfaces the error of the lowest-index
	// failure: what a sequential loop over the wave would have returned
	// first. The memo is only touched after the wave fully drains, so it
	// needs no lock.
	runWave := func(wave []float64) error {
		var todo []float64
		for _, r := range wave {
			if _, ok := memo[r]; !ok && !slices.Contains(todo, r) {
				todo = append(todo, r)
			}
		}
		counts := make([]ReplayCounts, len(todo))
		if err := optimize.ForEach(len(todo), len(todo), func(i int) (err error) {
			counts[i], err = replay(todo[i])
			return err
		}); err != nil {
			return err
		}
		for i, r := range todo {
			res.Replays++
			memo[r] = counts[i]
		}
		return nil
	}

	// scan walks seq wave by wave and returns the first radius satisfying
	// done, mirroring a sequential walk of seq with early exit.
	scan := func(seq []float64, done func(ReplayCounts) bool) (float64, bool, error) {
		for w := 0; w < len(seq); w += workers {
			wave := seq[w:min(w+workers, len(seq))]
			if err := runWave(wave); err != nil {
				return 0, false, err
			}
			for _, r := range wave {
				if done(memo[r]) {
					return r, true, nil
				}
			}
		}
		return 0, false, nil
	}

	// Phase 1: find b with neighborhood violations, halving from 1. When no
	// candidate triggers, b ends one halving past the last candidate.
	bs := make([]float64, maxHalvings)
	b := 1.0
	for i := range bs {
		bs[i] = b
		b /= 2
	}
	if r, ok, err := scan(bs, func(c ReplayCounts) bool { return c.Neighborhood > 0 }); err != nil {
		return res, err
	} else if ok {
		b = r
	}

	// Phase 2: push lo down until safe-zone violations vanish, and hi up
	// until neighborhood violations vanish. Either walk can exhaust its
	// halving budget without reaching the goal; that is recorded instead of
	// silently proceeding with a bad bracket, and the unconverged end stays
	// at the last radius tried.
	los := make([]float64, maxHalvings)
	his := make([]float64, maxHalvings)
	lo, hi := b, b
	for i := 0; i < maxHalvings; i++ {
		los[i], his[i] = lo, hi
		lo /= 2
		hi *= 2
	}
	lo, hi = los[maxHalvings-1], his[maxHalvings-1]
	if r, ok, err := scan(los, func(c ReplayCounts) bool { return c.SafeZone == 0 }); err != nil {
		return res, err
	} else if ok {
		lo, res.LoConverged = r, true
	}
	if r, ok, err := scan(his, func(c ReplayCounts) bool { return c.Neighborhood == 0 }); err != nil {
		return res, err
	} else if ok {
		hi, res.HiConverged = r, true
	}

	// Phase 3: grid search for the minimum total violations.
	res.Lo, res.Hi = lo, hi
	const gridSize = 10
	for i := 0; i < gridSize; i++ {
		if r := lo + (hi-lo)*float64(i)/float64(gridSize-1); r > 0 {
			res.GridR = append(res.GridR, r)
		}
	}
	if _, _, err := scan(res.GridR, func(ReplayCounts) bool { return false }); err != nil {
		return res, err
	}
	res.R = lo
	res.Counts = ReplayCounts{Neighborhood: 1 << 30}
	for _, r := range res.GridR {
		counts := memo[r]
		res.GridCounts = append(res.GridCounts, counts)
		if counts.Total() < res.Counts.Total() {
			res.R, res.Counts = r, counts
		}
	}
	if !res.LoConverged && !res.HiConverged {
		return res, ErrBracketNotConverged
	}
	return res, nil
}
