package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"automon/internal/obs"
	"automon/internal/testenv"
)

// syncForZone packages a zone the way the coordinator ships it, so tests
// exercise the same ApplySync path nodes see in production.
func syncForZone(zone *SafeZone, r float64, d int) *Sync {
	m := &Sync{NodeID: 0, Method: zone.Method, Kind: zone.Kind,
		X0: zone.X0, F0: zone.F0, GradF0: zone.GradF0, L: zone.L, U: zone.U,
		Lam: zone.Lam, R: r, Slack: make([]float64, d)}
	if zone.Method == MethodE {
		m.WithMatrix, m.Matrix = true, zone.H
	}
	return m
}

// TestNodeUpdateZeroAllocsX locks in the allocation-free per-update path for
// ADCD-X zones: UpdateData on an in-zone point must not allocate.
func TestNodeUpdateZeroAllocsX(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const d = 12
	f := benchCubic(d)
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.1 * float64(i%3)
	}
	grad := make([]float64, d)
	f0 := f.Grad(x0, grad)
	bLo, bHi := NeighborhoodBox(f, x0, 0.5)
	zone, err := BuildZoneX(f, x0, f0-1, f0+1, bLo, bHi, DecompOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(0, f)
	node.ApplySync(syncForZone(zone, 0.5, d))
	if v := node.UpdateData(x0); v != nil {
		t.Fatalf("x0 must be inside its own zone, got violation %+v", v)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if v := node.UpdateData(x0); v != nil {
			t.Fatalf("unexpected violation: %+v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("ADCD-X UpdateData allocates %.1f objects per run, want 0", allocs)
	}
}

// TestNodeUpdateZeroAllocsE does the same for the ADCD-E path, whose Contains
// check historically allocated a fresh difference vector per call.
func TestNodeUpdateZeroAllocsE(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const d = 12
	f := benchBilinear(d)
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.2
	}
	dec, err := DecomposeE(f, x0)
	if err != nil {
		t.Fatal(err)
	}
	f0 := f.Value(x0)
	zone := BuildZoneE(f, dec, x0, f0-1, f0+1)
	node := NewNode(0, f)
	node.ApplySync(syncForZone(zone, 0, d))
	allocs := testing.AllocsPerRun(200, func() {
		if v := node.UpdateData(x0); v != nil {
			t.Fatalf("unexpected violation: %+v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("ADCD-E UpdateData allocates %.1f objects per run, want 0", allocs)
	}
}

// TestContainsEFactoredNeverWorse turns the k·d ≤ d² argument into checked
// numbers at d = 256: the factored check allocates nothing at rank 0 or at
// full rank, agrees with the dense form, costs a small fraction of it at
// rank 0, and at full rank — the same d dot products — is no slower.
func TestContainsEFactoredNeverWorse(t *testing.T) {
	if testenv.RaceEnabled || testing.Short() {
		t.Skip("timings and allocation counts are unstable under -race / -short")
	}
	fx := newContainsEFixture(t, 256)
	rank0 := func() bool { return fx.rank0.ContainsScratch(fx.f, fx.v, fx.diff) }
	full := func() bool { return fx.full.ContainsScratch(fx.f, fx.v, fx.diff) }
	if !rank0() || !full() || !fx.dense() {
		t.Fatal("fixture point must be inside all three zones")
	}
	for name, check := range map[string]func() bool{"rank-0": rank0, "full-rank": full} {
		if allocs := testing.AllocsPerRun(100, func() { check() }); allocs != 0 {
			t.Errorf("%s ContainsScratch allocates %.1f objects per run, want 0", name, allocs)
		}
	}
	// Fastest of several interleaved rounds: what differs between rounds of
	// the same loop is what disturbed them, and that only makes one slower.
	perCall := func(check func() bool) time.Duration {
		start := time.Now()
		for i := 0; i < 300; i++ {
			check()
		}
		return time.Since(start) / 300
	}
	tRank0, tFull, tDense := time.Hour, time.Hour, time.Hour
	for round := 0; round < 9; round++ {
		tDense = min(tDense, perCall(fx.dense))
		tFull = min(tFull, perCall(full))
		tRank0 = min(tRank0, perCall(rank0))
	}
	t.Logf("d=256 exact check: rank-0 %v, full-rank %v, dense reference %v", tRank0, tFull, tDense)
	if float64(tFull) > 1.25*float64(tDense) {
		t.Errorf("full-rank factored check %v is slower than the dense form %v", tFull, tDense)
	}
	if float64(tRank0) > 0.25*float64(tDense) {
		t.Errorf("rank-0 check %v is not a small fraction of the dense form %v", tRank0, tDense)
	}
}

// TestEvalMemoCutsEigsolves measures the dense eigendecomposition count per
// DecomposeX with and without the evaluation memo. The seed code solved the
// eigensystem once per objective evaluation and again per gradient
// evaluation; the shared cache makes every gradient call reuse the
// objective's solve, so the count must drop by at least the gradient-eval
// share (line-search probes, which are objective-only, still pay one solve
// each — the zone cache handles those; see TestEigsolvesPerZoneBuildDrop).
func TestEvalMemoCutsEigsolves(t *testing.T) {
	const d = 8
	f := benchCubic(d)
	x0 := make([]float64, d)
	bLo, bHi := NeighborhoodBox(f, x0, 0.5)

	count := func(disable bool) int64 {
		ctr := obs.NewCounter()
		opts := DecompOptions{Seed: 1, noEvalMemo: disable, EigsolveCounter: ctr}
		if _, err := DecomposeX(f, x0, bLo, bHi, opts); err != nil {
			t.Fatal(err)
		}
		return ctr.Load()
	}
	memo, noMemo := count(false), count(true)
	if memo <= 0 || noMemo <= 0 {
		t.Fatalf("eigensolve counters did not move: memo=%d nomemo=%d", memo, noMemo)
	}
	if memo >= noMemo {
		t.Fatalf("memoized DecomposeX used %d eigensolves vs %d unmemoized; want a reduction", memo, noMemo)
	}
	t.Logf("eigensolves per DecomposeX: %d memoized vs %d unmemoized (%.0f%% reduction)",
		memo, noMemo, 100*(1-float64(memo)/float64(noMemo)))
}

// TestEigsolvesPerZoneBuildDrop is the ISSUE acceptance measurement: the
// dense eigensolve count per ADCD-X zone build, read off the coordinator's
// obs counter, must drop ≥ 40% against the seed-equivalent configuration
// (no eval memo, no zone cache) when the full stack — shared
// objective/gradient memo plus the quantized LRU decomposition cache — is
// enabled and the global state drifts within one quantization cell.
func TestEigsolvesPerZoneBuildDrop(t *testing.T) {
	f := rosenbrockFunc()
	const n = 4
	const builds = 4 // Init + 3 resyncs

	run := func(cfg Config) float64 {
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = NewNode(i, f)
			nodes[i].SetData([]float64{0.1 * float64(i), 0.05})
		}
		coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
		if err := coord.Init(); err != nil {
			t.Fatal(err)
		}
		if coord.Method() != MethodX {
			t.Fatalf("rosenbrock should decompose via ADCD-X, got %v", coord.Method())
		}
		for k := 1; k < builds; k++ {
			// Drift well inside the 1e-2 quantization cell, so a fresh
			// decomposition would be near-identical to the cached one.
			for i := range nodes {
				nodes[i].SetData([]float64{0.1*float64(i) + 1e-4*float64(k), 0.05})
			}
			if err := coord.Resync(); err != nil {
				t.Fatal(err)
			}
		}
		return float64(coord.Stats().Eigensolves) / builds
	}

	baseline := run(Config{Epsilon: 0.25, R: 0.5,
		Decomp: DecompOptions{Seed: 1, noEvalMemo: true}})
	cached := run(Config{Epsilon: 0.25, R: 0.5, ZoneCacheSize: 8,
		Decomp: DecompOptions{Seed: 1}})
	if baseline == 0 || cached == 0 {
		t.Fatalf("eigensolve counters did not move: baseline=%v cached=%v", baseline, cached)
	}
	if cached > 0.6*baseline {
		t.Fatalf("eigensolves per zone build: %.1f with memo+cache vs %.1f seed-equivalent; want ≥40%% drop",
			cached, baseline)
	}
	t.Logf("eigensolves per zone build: %.1f with memo+cache vs %.1f seed-equivalent (%.0f%% drop)",
		cached, baseline, 100*(1-cached/baseline))
}

// TestExtremeEigsOverBoxDeterministicAcrossWorkers checks the parallel
// eigenvalue search is bit-identical at any worker count: starts are
// pre-drawn from the seeded stream and the best is picked in start order.
func TestExtremeEigsOverBoxDeterministicAcrossWorkers(t *testing.T) {
	const d = 8
	f := benchCubic(d)
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.05 * float64(i)
	}
	bLo, bHi := NeighborhoodBox(f, x0, 0.5)
	opts := DecompOptions{Seed: 7, OptStarts: 3}

	run := func(workers int) (float64, float64) {
		o := opts
		o.Workers = workers
		lamMin, lamMax, err := ExtremeEigsOverBox(f, x0, bLo, bHi, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return lamMin, lamMax
	}
	seqMin, seqMax := run(1)
	for _, workers := range []int{2, 4, 8} {
		gotMin, gotMax := run(workers)
		if gotMin != seqMin || gotMax != seqMax {
			t.Fatalf("workers=%d: (λ̂min, λ̂max) = (%v, %v), sequential gave (%v, %v)",
				workers, gotMin, gotMax, seqMin, seqMax)
		}
	}
}

// TestConcurrentDecompositionsShareFunction hammers one *Function from many
// goroutines running full ADCD-X decompositions, each itself parallel. Run
// under -race this covers the evaluator isolation (the legacy search shared
// one gradient scratch and error slot across closures) and the sync.Pool
// scratch in EigGrad/autodiff.
func TestConcurrentDecompositionsShareFunction(t *testing.T) {
	const d = 6
	f := benchCubic(d)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x0 := make([]float64, d)
			for i := range x0 {
				x0[i] = 0.1 * float64((g+i)%4)
			}
			bLo, bHi := NeighborhoodBox(f, x0, 0.4)
			_, err := DecomposeX(f, x0, bLo, bHi, DecompOptions{Seed: int64(g), Workers: 2})
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestTuneParallelMatchesSequential runs Algorithm 2 on real Rosenbrock data
// through the sequential reference and through Tune at each wave width, and
// requires identical tuning outcomes — only the replay count may differ
// (speculation probes past each phase's stopping point).
func TestTuneParallelMatchesSequential(t *testing.T) {
	f := rosenbrockFunc()
	data := rosenbrockData(rand.New(rand.NewSource(17)), 40, 4)
	base := Config{Epsilon: 0.25, Decomp: DecompOptions{Seed: 3}}

	seq, seqErr := tuneSequential(func(r float64) (ReplayCounts, error) {
		c := base.Detached()
		c.R = r
		return Replay(f, data, 4, c)
	})
	for _, width := range waveWidths {
		cfg := base
		cfg.Decomp.Workers = width
		par, parErr := Tune(f, data, 4, cfg)
		requireSameTuning(t, fmt.Sprintf("wave width %d", width), par, seq, parErr, seqErr)
		if width == 1 && par.Replays != seq.Replays {
			t.Fatalf("width 1 speculated: %d replays, the sequential walk takes %d", par.Replays, seq.Replays)
		}
	}
}

// TestReplayDeterministicAcrossDecompWorkers replays the same monitoring
// prefix with sequential and parallel decomposition searches and requires
// identical violation counts: the protocol's decisions must not depend on
// the worker pool.
func TestReplayDeterministicAcrossDecompWorkers(t *testing.T) {
	f := rosenbrockFunc()
	data := rosenbrockData(rand.New(rand.NewSource(23)), 30, 4)
	run := func(workers int) ReplayCounts {
		counts, err := Replay(f, data, 4, Config{
			Epsilon: 0.25, R: 0.1,
			Decomp: DecompOptions{Seed: 5, Workers: workers},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return counts
	}
	seq := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != seq {
			t.Fatalf("workers=%d: counts %+v, sequential gave %+v", workers, got, seq)
		}
	}
}

// TestZoneCacheReusesDecompositions re-syncs a coordinator whose global state
// has not moved and checks the LRU cache skips the eigenvalue search while
// the monitored estimate stays intact.
func TestZoneCacheReusesDecompositions(t *testing.T) {
	f := rosenbrockFunc()
	const n = 4
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0.1 * float64(i), 0.05})
	}
	cfg := Config{Epsilon: 0.25, R: 0.5, ZoneCacheSize: 8}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	if coord.Method() != MethodX {
		t.Fatalf("rosenbrock should decompose via ADCD-X, got %v", coord.Method())
	}
	after := coord.Stats()
	if after.ZoneCacheMisses == 0 {
		t.Fatalf("first sync should miss the zone cache: %+v", after)
	}
	solvesAfterInit := after.Eigensolves
	if solvesAfterInit == 0 {
		t.Fatal("initial sync performed no eigensolves")
	}

	estimate := coord.Estimate()
	for i := 0; i < 3; i++ {
		if err := coord.Resync(); err != nil {
			t.Fatal(err)
		}
	}
	stats := coord.Stats()
	if stats.ZoneCacheHits < 3 {
		t.Fatalf("re-syncs at an unchanged x0 should hit the cache, stats %+v", stats)
	}
	if stats.Eigensolves != solvesAfterInit {
		t.Fatalf("cache hits must not re-run the eigensolver: %d solves after init, %d after re-syncs",
			solvesAfterInit, stats.Eigensolves)
	}
	if got := coord.Estimate(); math.Abs(got-estimate) > 1e-12 {
		t.Fatalf("estimate drifted across cached syncs: %v vs %v", got, estimate)
	}
}
