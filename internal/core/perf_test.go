package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"automon/internal/autodiff"
	"automon/internal/linalg"
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
	bLo, bHi := NeighborhoodBox(f, x0, 0.5, nil, nil)
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

// TestViolationPathAllocatesNothing pins the in-process node ↔ coordinator
// boundary at zero allocations: a node's violating update resolved lazily over
// a Fabric (the node lends its violation, each pull lends the pulled node's
// vector and the fabric's two pull messages, each Slack is applied in place),
// an ADCD-E sync, an ADCD-X sync and a Slack installed on a node, and the
// elided exact check with its budget refresh on a passing and a failing
// point.
func TestViolationPathAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	t.Run("lazy resolution", func(t *testing.T) {
		// The lazyFleet geometry over real nodes: 1024 nodes at (1, 0); the
		// least recently balanced one moves to (2, 0) and four pulls bring
		// the mean back to (1.2, 0). 101 resolutions touch 505 < n nodes.
		const n = 1024
		f := NewFunction("sqnorm", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
			return b.SqNorm(x)
		})
		initial := make([][]float64, n)
		for i := range initial {
			initial[i] = []float64{1, 0}
		}
		g := NewGroup(f, initial)
		msgs := 0
		g.OnMessage = func(Message) { msgs++ }
		coord := NewCoordinator(f, n, Config{Epsilon: 0.5}, g)
		if err := g.Start(coord); err != nil {
			t.Fatal(err)
		}
		far := []float64{2, 0}
		msgs = 0
		allocs := testing.AllocsPerRun(100, func() {
			id := coord.pickLRU()
			v := g.Nodes[id].UpdateData(far)
			if v == nil || v.Kind != ViolationSafeZone || v.NodeID != id {
				t.Fatalf("node %d at %v: violation %+v, want a safe-zone violation", id, far, v)
			}
			if err := g.Resolve(v); err != nil {
				t.Fatal(err)
			}
		})
		st := coord.Stats()
		// Per resolution: the violation, four pulls of two messages, five
		// slacks.
		if st.FullSyncs != 1 || st.LazyResolved != 101 || msgs != 14*101 {
			t.Fatalf("%d full syncs, %d lazy resolutions, %d messages; want 1, 101 and 14 each",
				st.FullSyncs, st.LazyResolved, msgs)
		}
		if allocs != 0 {
			t.Fatalf("a violating update and its lazy resolution allocate %.1f objects, want 0", allocs)
		}
	})
	t.Run("apply", func(t *testing.T) {
		const d = 12
		fe := benchBilinear(d)
		xe := make([]float64, d)
		for i := range xe {
			xe[i] = 0.2
		}
		dec, err := DecomposeE(fe, xe)
		if err != nil {
			t.Fatal(err)
		}
		fe0 := fe.Value(xe)
		eSync := syncForZone(BuildZoneE(fe, dec, xe, fe0-1, fe0+1), 0, d)
		eNode := NewNode(0, fe)
		eNode.ApplySync(eSync) // the first sync delivers the factor
		eSync.WithMatrix, eSync.Matrix = false, nil

		fx := benchCubic(d)
		xx := make([]float64, d)
		for i := range xx {
			xx[i] = 0.1 * float64(i%3)
		}
		grad := make([]float64, d)
		fx0 := fx.Grad(xx, grad)
		bLo, bHi := NeighborhoodBox(fx, xx, 0.5, nil, nil)
		xZone, err := BuildZoneX(fx, xx, fx0-1, fx0+1, bLo, bHi, DecompOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		xSync := syncForZone(xZone, 0.5, d)
		xNode := NewNode(0, fx)
		xNode.ApplySync(xSync) // the first ADCD-X sync allocates the box
		slack := &Slack{Slack: make([]float64, d)}

		for name, apply := range map[string]func() bool{
			"ADCD-E ApplySync": func() bool { return eNode.ApplySync(eSync) },
			"ADCD-X ApplySync": func() bool { return xNode.ApplySync(xSync) },
			"ApplySlack":       func() bool { return xNode.ApplySlack(slack) },
		} {
			if allocs := testing.AllocsPerRun(100, func() {
				if !apply() {
					t.Fatalf("%s refused", name)
				}
			}); allocs != 0 {
				t.Errorf("%s allocates %.1f objects per run, want 0", name, allocs)
			}
		}
		// The refilled box is the one the coordinator built.
		if z := xNode.Zone(); !reflect.DeepEqual(z.BLo, bLo) || !reflect.DeepEqual(z.BHi, bHi) {
			t.Errorf("refilled box [%v, %v], want [%v, %v]", z.BLo, z.BHi, bLo, bHi)
		}
		if v := xNode.UpdateData(xx); v != nil {
			t.Errorf("x0 violates its own refilled zone: %+v", v)
		}
	})
	t.Run("elided refresh", func(t *testing.T) {
		// The exact check of an elision-enabled node, which refreshes the
		// budget on a pass from the check's own gradient, and pays that
		// gradient on a safe-zone violation too.
		for _, method := range []Method{MethodE, MethodX} {
			node, _, x0 := budgetTestZone(t, method, 6, 0.4)
			far := linalg.Clone(x0)
			for i := range far {
				far[i] += 0.3
			}
			if v := node.UpdateDataRefresh(far); v == nil || v.Kind != ViolationSafeZone {
				t.Fatalf("%v: %v must fail the safe zone inside the neighborhood, got %+v", method, far, v)
			}
			for _, tc := range []struct {
				name string
				x    []float64
				fail bool
			}{{"pass", x0, false}, {"fail", far, true}} {
				if allocs := testing.AllocsPerRun(100, func() {
					if v := node.UpdateDataRefresh(tc.x); (v != nil) != tc.fail {
						t.Fatalf("%v %s: violation %+v", method, tc.name, v)
					}
				}); allocs != 0 {
					t.Errorf("%v UpdateDataRefresh (%s) allocates %.1f objects per run, want 0", method, tc.name, allocs)
				}
			}
			if node.UpdateDataRefresh(x0) != nil || node.SpendBudget(0) {
				t.Errorf("%v: a passing UpdateDataRefresh must leave a live budget", method)
			}
		}
	})
}

// TestNodeFitsItsSizeClass keeps a Node within the 352-byte size class of the
// node (192 B) and per-sync zone (160 B) it replaced: a larger one raises the
// fleets' heap_live_mib, which holds 8192 of them.
func TestNodeFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 352 {
		t.Fatalf("Node is %d bytes, want at most 352", size)
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
	// Each round times one call of each form back to back, so load on the
	// host lands on all three alike, and each form keeps its fastest round:
	// what differs between rounds is what disturbed them, and that only
	// makes one slower.
	timed := func(check func() bool) time.Duration {
		start := time.Now()
		check()
		return time.Since(start)
	}
	tRank0, tFull, tDense := time.Hour, time.Hour, time.Hour
	for round := 0; round < 500; round++ {
		tDense = min(tDense, timed(fx.dense))
		tFull = min(tFull, timed(full))
		tRank0 = min(tRank0, timed(rank0))
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
// each).
func TestEvalMemoCutsEigsolves(t *testing.T) {
	const d = 8
	f := benchCubic(d)
	x0 := make([]float64, d)
	bLo, bHi := NeighborhoodBox(f, x0, 0.5, nil, nil)

	count := func(disable bool) int {
		dec, err := DecomposeX(f, x0, bLo, bHi, DecompOptions{Seed: 1, noEvalMemo: disable})
		if err != nil {
			t.Fatal(err)
		}
		return dec.Eigensolves
	}
	memo, noMemo := count(false), count(true)
	// EXPERIMENTS.md ("Hot-path performance overhaul") records 137 → 108 at
	// these settings, counted by a counter the search incremented per solve;
	// the count a decomposition reports must reproduce both.
	if memo != 108 || noMemo != 137 {
		t.Fatalf("eigensolves per DecomposeX: %d memoized, %d unmemoized; the recorded counts are 108 and 137", memo, noMemo)
	}
	if memo >= noMemo {
		t.Fatalf("memoized DecomposeX used %d eigensolves vs %d unmemoized; want a reduction", memo, noMemo)
	}
	t.Logf("eigensolves per DecomposeX: %d memoized vs %d unmemoized (%.0f%% reduction)",
		memo, noMemo, 100*(1-float64(memo)/float64(noMemo)))
}

// TestExtremeEigsOverBoxDeterministicAcrossWorkers checks the parallel
// eigenvalue search is bit-identical at any worker count: starts are
// pre-drawn from the seeded stream and the best is picked in start order.
// The eigensolve count it reports is the same at every width too, with and
// without the memo: each start's evaluator counts its own solves.
func TestExtremeEigsOverBoxDeterministicAcrossWorkers(t *testing.T) {
	const d = 8
	f := benchCubic(d)
	x0 := make([]float64, d)
	for i := range x0 {
		x0[i] = 0.05 * float64(i)
	}
	bLo, bHi := NeighborhoodBox(f, x0, 0.5, nil, nil)
	for _, noMemo := range []bool{false, true} {
		run := func(workers int) (float64, float64, int) {
			o := DecompOptions{Seed: 7, OptStarts: 3, noEvalMemo: noMemo, workers: workers}
			lamMin, lamMax, solves, err := extremeEigsOverBox(f, x0, bLo, bHi, o, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return lamMin, lamMax, solves
		}
		seqMin, seqMax, seqSolves := run(1)
		if seqSolves == 0 {
			t.Fatalf("nomemo=%v: the search reported no eigensolves", noMemo)
		}
		for _, workers := range []int{0, 2, 4, 8} {
			gotMin, gotMax, gotSolves := run(workers)
			if gotMin != seqMin || gotMax != seqMax || gotSolves != seqSolves {
				t.Fatalf("nomemo=%v workers=%d: (λ̂min, λ̂max, solves) = (%v, %v, %d), sequential gave (%v, %v, %d)",
					noMemo, workers, gotMin, gotMax, gotSolves, seqMin, seqMax, seqSolves)
			}
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
			bLo, bHi := NeighborhoodBox(f, x0, 0.4, nil, nil)
			_, err := DecomposeX(f, x0, bLo, bHi, DecompOptions{Seed: int64(g), workers: 2})
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
// through the sequential reference, through the wave search at each width,
// and through Tune at its own (per-core) width, and requires identical tuning
// outcomes — only the replay count may differ (speculation probes past each
// phase's stopping point).
func TestTuneParallelMatchesSequential(t *testing.T) {
	f := rosenbrockFunc()
	data := rosenbrockData(rand.New(rand.NewSource(17)), 40, 4)
	base := Config{Epsilon: 0.25, Decomp: DecompOptions{Seed: 3}}
	replay := func(r float64) (ReplayCounts, error) {
		c := base.Detached()
		c.R = r
		return Replay(f, data, 4, c)
	}

	seq, seqErr := tuneSequential(replay)
	for _, width := range waveWidths {
		par, parErr := tuneWaves(replay, width)
		requireSameTuning(t, fmt.Sprintf("wave width %d", width), par, seq, parErr, seqErr)
		if width == 1 && par.Replays != seq.Replays {
			t.Fatalf("width 1 speculated: %d replays, the sequential walk takes %d", par.Replays, seq.Replays)
		}
	}
	got, err := Tune(f, data, 4, base)
	requireSameTuning(t, "Tune", got, seq, err, seqErr)
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
			Decomp: DecompOptions{Seed: 5, workers: workers},
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

// TestDecodePartialAllocatesPerFrame: a Partial's accumulators are decoded
// in place into its Accs slice, so decoding a d = 256 frame allocates the
// frame and the slice, not one accumulator per dimension.
func TestDecodePartialAllocatesPerFrame(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const d = 256
	rng := rand.New(rand.NewSource(1))
	p := &Partial{ShardID: 1, Epoch: 3, Weight: 8, Accs: make([]linalg.Acc, d)}
	for j := range p.Accs {
		for k := 0; k < 8; k++ {
			p.Accs[j].Add(rng.NormFloat64())
		}
	}
	buf := p.Encode()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Decode(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decoding a d = %d Partial allocates %.0f objects, want ≤ 2", d, allocs)
	}
}
