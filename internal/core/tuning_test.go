package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"automon/internal/obs"
)

// rosenbrockData samples the §3.6 workload: entries drawn from N(0, 0.2²).
func rosenbrockData(rng *rand.Rand, rounds, n int) TuningData {
	data := make(TuningData, rounds)
	for r := range data {
		data[r] = make([][]float64, n)
		for i := 0; i < n; i++ {
			data[r][i] = []float64{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2}
		}
	}
	return data
}

func TestReplayCountsViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := rosenbrockFunc()
	data := rosenbrockData(rng, 60, 4)
	cfg := Config{Epsilon: 0.25, R: 0.05, Decomp: DecompOptions{Seed: 1}}
	counts, err := Replay(f, data, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny neighborhood on noisy data must produce neighborhood violations.
	if counts.Neighborhood == 0 {
		t.Fatalf("expected neighborhood violations with r=0.05, got %+v", counts)
	}
}

func TestReplayValidatesData(t *testing.T) {
	f := rosenbrockFunc()
	if _, err := Replay(f, TuningData{}, 2, Config{Epsilon: 0.1, R: 1}); err == nil {
		t.Fatal("empty data must be rejected")
	}
	bad := TuningData{{{1, 2}}, {{1, 2}}} // 1 node, expected 2
	if _, err := Replay(f, bad, 2, Config{Epsilon: 0.1, R: 1}); err == nil {
		t.Fatal("node-count mismatch must be rejected")
	}
	bad2 := TuningData{{{1}, {1}}, {{1}, {1}}} // dim 1, expected 2
	if _, err := Replay(f, bad2, 2, Config{Epsilon: 0.1, R: 1}); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}
}

func TestTuneTradesOffViolationTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := rosenbrockFunc()
	n := 4
	data := rosenbrockData(rng, 80, n)
	cfg := Config{Epsilon: 0.25, Decomp: DecompOptions{Seed: 2}}
	res, err := Tune(f, data, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.R <= 0 {
		t.Fatalf("tuned r = %v, want > 0", res.R)
	}
	if res.R < res.Lo-1e-12 || res.R > res.Hi+1e-12 {
		t.Fatalf("tuned r %v outside bracket [%v, %v]", res.R, res.Lo, res.Hi)
	}
	if len(res.GridR) == 0 {
		t.Fatal("grid search produced no candidates")
	}
	// The tuned r must be at least as good as every grid candidate.
	for i, c := range res.GridCounts {
		if c.Total() < res.Counts.Total() {
			t.Fatalf("grid point r=%v has %d violations < chosen %d", res.GridR[i], c.Total(), res.Counts.Total())
		}
	}
	// And monitoring with the tuned r must beat a pathologically small and a
	// pathologically large fixed neighborhood.
	run := func(r float64) int {
		c := cfg
		c.R = r
		counts, err := Replay(f, data, n, c)
		if err != nil {
			t.Fatal(err)
		}
		return counts.Total()
	}
	tuned := run(res.R)
	tiny := run(res.Lo / 64)
	if tiny < tuned {
		t.Fatalf("tiny r (%d violations) beat tuned r (%d)", tiny, tuned)
	}
}

func TestTuneIsDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := rosenbrockFunc()
	data := rosenbrockData(rng, 50, 3)
	cfg := Config{Epsilon: 0.3, Decomp: DecompOptions{Seed: 5}}
	r1, err := Tune(f, data, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Tune(f, data, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.R != r2.R {
		t.Fatalf("tuning not deterministic: %v vs %v", r1.R, r2.R)
	}
}

// tuneSequential is the reference Algorithm 2 the wave search is compared
// against: one replay at a time, each phase a plain loop with its stopping
// rule inline. It was Tune's sequential path until the wave search at width 1
// replaced it; it stays here as the independent oracle.
func tuneSequential(replay func(r float64) (ReplayCounts, error)) (TuneResult, error) {
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
	// until neighborhood violations vanish.
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

// waveWidths are the widths every tuning test runs the wave search at: 1 is
// the sequential walk, 3 and 7 divide neither the 20-step halving sequences
// nor the 10-point grid, so waves straddle each phase's stopping point.
var waveWidths = []int{1, 3, 7}

// requireSameTuning fails unless got selects what want selects; Replays is
// the one field speculation may grow.
func requireSameTuning(t *testing.T, label string, got, want TuneResult, gotErr, wantErr error) {
	t.Helper()
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("%s: err = %v, reference %v", label, gotErr, wantErr)
	}
	if got.Replays < want.Replays {
		t.Fatalf("%s: replayed fewer radii (%d) than the reference (%d)", label, got.Replays, want.Replays)
	}
	got.Replays = want.Replays
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: tuning diverged from the reference:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// TestTuneProbesAreDetached: Tune's probe replays are throwaway runs on
// Config.Detached. The caller's eigensolve counters must not absorb the
// probes' work, and neither its metric labels nor its radius controller may
// reach the probes.
func TestTuneProbesAreDetached(t *testing.T) {
	f := rosenbrockFunc()
	const n = 4
	data := rosenbrockData(rand.New(rand.NewSource(41)), 40, n)
	base, err := Tune(f, data, n, Config{Epsilon: 0.25, Decomp: DecompOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg := Config{
		Epsilon: 0.25, AdaptiveR: true, MetricsLabels: `group="1"`, Metrics: reg,
		Decomp: DecompOptions{Seed: 2},
	}
	eig := reg.Counter(`automon_coordinator_eigensolves_total{group="1"}`, "")
	opt := reg.Counter(`automon_coordinator_eigbound_opt_evals_total{group="1"}`, "")
	got, err := Tune(f, data, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eig.Load() != 0 || opt.Load() != 0 {
		t.Fatalf("probe replays counted into the caller's instruments: %d eigensolves, %d optimizer evals",
			eig.Load(), opt.Load())
	}
	requireSameTuning(t, "instrumented config", got, base, nil, nil)
	if got.Replays != base.Replays {
		t.Fatalf("Replays = %d with deployment state configured, %d without", got.Replays, base.Replays)
	}
	// The same instruments do count the caller's own monitoring run.
	own := cfg
	own.R, own.AdaptiveR = got.R, false
	if _, err := Replay(f, data, n, own); err != nil {
		t.Fatal(err)
	}
	if eig.Load() == 0 || opt.Load() == 0 {
		t.Fatalf("the caller's own run counted %d eigensolves, %d optimizer evals; the check above is vacuous",
			eig.Load(), opt.Load())
	}

	d := cfg.Detached()
	if d.Metrics != nil || d.Tracer != nil || d.MetricsLabels != "" || d.AdaptiveR {
		t.Fatalf("Detached kept deployment state: %+v", d)
	}
	if d.Epsilon != cfg.Epsilon || d.Decomp.Seed != cfg.Decomp.Seed {
		t.Fatalf("Detached dropped protocol settings: %+v", d)
	}
}
