package core

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/autodiff"
)

// --- RMax resolution and the §3.6 doubling cap -----------------------------

func TestResolveRMax(t *testing.T) {
	unbounded := rosenbrockFunc()
	bounded := NewFunction("boxed", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Add(b.Square(x[0]), b.Square(x[1]))
	}).WithDomain([]float64{-1, -3}, []float64{1, 3})

	cases := []struct {
		name string
		cfg  Config
		f    *Function
		want float64
	}{
		{"explicit cap wins", Config{R: 0.1, RMax: 7}, bounded, 7},
		{"negative disables the cap", Config{R: 0.1, RMax: -1}, bounded, math.MaxFloat64},
		{"zero derives the domain diameter", Config{R: 0.1}, bounded, 6},
		{"zero without a domain derives from the starting radius", Config{R: 0.1}, unbounded, 0.1 * defaultRMaxFactor},
		{"zero without domain or radius disables the cap", Config{}, unbounded, math.MaxFloat64},
		{"cap never sits below the starting radius", Config{R: 10, RMax: 1}, bounded, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := resolveRMax(tc.cfg, tc.f); got != tc.want {
				t.Fatalf("resolveRMax = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestRMaxCapsViolationStorm is the violation-storm regression test: before
// the cap, every RDoubleAfter-th consecutive neighborhood violation doubled r
// without bound, so a sustained storm drove r toward +Inf (overflowing the
// zone-cache quantizer on the way). With RMax the radius saturates and the
// clamps are counted.
func TestRMaxCapsViolationStorm(t *testing.T) {
	f := rosenbrockFunc()
	n := 2
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0, 0})
	}
	cfg := Config{Epsilon: 5, R: 0.01, RDoubleAfter: 1, RMax: 0.04, Decomp: DecompOptions{Seed: 1}}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}

	const storm = 12
	for k := 0; k < storm; k++ {
		err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(coord.R(), 0) || math.IsNaN(coord.R()) {
			t.Fatalf("violation %d: r went non-finite (%v)", k, coord.R())
		}
		if coord.R() > cfg.RMax {
			t.Fatalf("violation %d: r = %v exceeds RMax %v", k, coord.R(), cfg.RMax)
		}
	}
	if coord.R() != cfg.RMax {
		t.Fatalf("storm should saturate r at RMax %v, got %v", cfg.RMax, coord.R())
	}
	st := coord.Stats()
	// 0.01 → 0.02 → 0.04 are genuine doublings; the remaining storm rounds
	// clamp.
	if st.RDoublings != 2 {
		t.Fatalf("RDoublings = %d, want 2", st.RDoublings)
	}
	if st.RSaturations != storm-2 {
		t.Fatalf("RSaturations = %d, want %d", st.RSaturations, storm-2)
	}
}

func TestDefaultRMaxBoundsUncappedStorm(t *testing.T) {
	// Even with RMax unset and no domain to derive a diameter from, the
	// default cap (1024·R) keeps a sustained storm finite.
	f := rosenbrockFunc()
	n := 2
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0, 0})
	}
	cfg := Config{Epsilon: 5, R: 0.01, RDoubleAfter: 1, Decomp: DecompOptions{Seed: 1}}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	want := 0.01 * defaultRMaxFactor
	if coord.RMax() != want {
		t.Fatalf("derived RMax = %v, want %v", coord.RMax(), want)
	}
	for k := 0; k < 20; k++ {
		err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if coord.R() > want {
		t.Fatalf("r = %v exceeded the derived cap %v", coord.R(), want)
	}
	if coord.Stats().RSaturations == 0 {
		t.Fatal("a 20-doubling storm against a 1024× cap must saturate")
	}
}

// --- quantizeKey finiteness/range guard ------------------------------------

func TestQuantizeCellGuard(t *testing.T) {
	cases := []struct {
		name string
		v    float64
		ok   bool
	}{
		{"ordinary value", 0.5, true},
		{"zero", 0, true},
		{"negative", -123.4, true},
		{"largest representable cell", maxQuantCell * zoneCacheQuantum, true},
		{"just past the representable range", maxQuantCell * zoneCacheQuantum * 4, false},
		{"huge", 1e300, false},
		{"+inf", math.Inf(1), false},
		{"-inf", math.Inf(-1), false},
		{"nan", math.NaN(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := quantizeCell(tc.v); ok != tc.ok {
				t.Fatalf("quantizeCell(%v) ok = %v, want %v", tc.v, ok, tc.ok)
			}
		})
	}
}

func TestQuantizeKeyRejectsUnrepresentableInputs(t *testing.T) {
	x0 := []float64{1, 2}
	if _, ok := quantizeKey(BackendLBFGS, x0, 0.5); !ok {
		t.Fatal("finite inputs must quantize")
	}
	bad := []struct {
		name string
		x0   []float64
		r    float64
	}{
		{"huge radius", x0, 1e300},
		{"nan radius", x0, math.NaN()},
		{"inf coordinate", []float64{math.Inf(1), 0}, 0.5},
		{"huge coordinate", []float64{1e300, 0}, 0.5},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := quantizeKey(BackendLBFGS, tc.x0, tc.r); ok {
				t.Fatalf("quantizeKey accepted unrepresentable input")
			}
		})
	}
}

func TestFullSyncBypassesCacheOnUnquantizableKey(t *testing.T) {
	// A radius far past the quantizer's range must skip the cache (counted as
	// a bypass), not silently alias another entry's key. The quadratic has a
	// constant Hessian, so the interval backend stays exact on the huge box.
	f := NewFunction("quad", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Add(b.Square(x[0]), b.Square(x[1]))
	})
	n := 2
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0.1, 0.1})
	}
	cfg := Config{
		Epsilon: 1, R: 1e300, ForceADCDX: true, ZoneCacheSize: 8,
		Decomp: DecompOptions{Backend: BackendInterval},
	}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.ZoneCacheBypasses != 1 {
		t.Fatalf("ZoneCacheBypasses = %d, want 1", st.ZoneCacheBypasses)
	}
	if st.ZoneCacheHits != 0 || st.ZoneCacheMisses != 0 {
		t.Fatalf("bypassed sync must not count as hit/miss: %+v", st)
	}
	if n := len(coord.zones.keys); n != 0 {
		t.Fatalf("bypassed sync stored %d cache entries", n)
	}
}

// --- a radius change clears the zone cache ---------------------------------

func TestDoublingInvalidatesOwnScopeOnly(t *testing.T) {
	// Each machine owns its cache. When coordinator a's radius doubles, its
	// stale entries vanish immediately; coordinator b's survive.
	build := func() *Coordinator {
		f := rosenbrockFunc()
		n := 2
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = NewNode(i, f)
			nodes[i].SetData([]float64{0, 0})
		}
		cfg := Config{
			Epsilon: 5, R: 0.01, RDoubleAfter: 1, ZoneCacheSize: 8,
			Decomp: DecompOptions{Seed: 1},
		}
		c := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
		if err := c.Init(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := build(), build()
	if len(a.zones.keys) != 1 || len(b.zones.keys) != 1 {
		t.Fatalf("both coordinators should have cached their init decomposition, caches hold %d and %d",
			len(a.zones.keys), len(b.zones.keys))
	}

	// One neighborhood violation doubles a's radius (RDoubleAfter = 1).
	err := a.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats().RDoublings != 1 {
		t.Fatalf("setup: expected a doubling, stats %+v", a.Stats())
	}
	if a.Stats().ZoneCacheInvalidations != 1 {
		t.Fatalf("doubling must drop the old-radius entry, ZoneCacheInvalidations = %d", a.Stats().ZoneCacheInvalidations)
	}
	if len(a.zones.keys) != 1 {
		t.Fatalf("a's cache holds %d entries after the doubling's sync, want only the new-radius one", len(a.zones.keys))
	}
	if b.Stats().ZoneCacheInvalidations != 0 {
		t.Fatal("coordinator b lost cache entries to a's doubling")
	}
	// b's entry is still a hit.
	if err := b.Resync(); err != nil {
		t.Fatal(err)
	}
	if b.Stats().ZoneCacheHits == 0 {
		t.Fatal("b's cached decomposition should have survived a's doubling")
	}
}

// --- §3.6 streak/restore across RDoubleAfter boundaries --------------------

func TestStreakRestoreAcrossRDoubleBoundaries(t *testing.T) {
	// k consecutive neighborhood violations against RDoubleAfter = m must
	// produce exactly k/m doublings and leave the streak at k mod m — the
	// restore-after-fullSync logic must neither lose the running streak nor
	// carry it across a doubling.
	cases := []struct {
		rDoubleAfter, violations int
	}{
		{1, 1}, {1, 3},
		{2, 1}, {2, 2}, {2, 3}, {2, 4}, {2, 5},
		{3, 2}, {3, 3}, {3, 4}, {3, 6}, {3, 7},
		{5, 4}, {5, 5}, {5, 9}, {5, 10},
	}
	for _, tc := range cases {
		t.Run("", func(t *testing.T) {
			f := rosenbrockFunc()
			n := 2
			nodes := make([]*Node, n)
			for i := range nodes {
				nodes[i] = NewNode(i, f)
				nodes[i].SetData([]float64{0, 0})
			}
			cfg := Config{Epsilon: 5, R: 0.01, RDoubleAfter: tc.rDoubleAfter, Decomp: DecompOptions{Seed: 1}}
			coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
			if err := coord.Init(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < tc.violations; k++ {
				err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
				if err != nil {
					t.Fatal(err)
				}
			}
			wantDoublings := tc.violations / tc.rDoubleAfter
			wantStreak := tc.violations % tc.rDoubleAfter
			if got := coord.Stats().RDoublings; got != wantDoublings {
				t.Fatalf("m=%d k=%d: RDoublings = %d, want %d", tc.rDoubleAfter, tc.violations, got, wantDoublings)
			}
			if coord.consecNeigh != wantStreak {
				t.Fatalf("m=%d k=%d: streak = %d, want %d", tc.rDoubleAfter, tc.violations, coord.consecNeigh, wantStreak)
			}
			wantR := 0.01 * math.Pow(2, float64(wantDoublings))
			if math.Abs(coord.R()-wantR) > 1e-15 {
				t.Fatalf("m=%d k=%d: r = %v, want %v", tc.rDoubleAfter, tc.violations, coord.R(), wantR)
			}
		})
	}
}

func TestRevivalPathIgnoresViolationKind(t *testing.T) {
	// A violation from a dead-marked node takes the revival path regardless of
	// kind: it is a rejoin, not a protocol violation. In particular a
	// neighborhood violation from a dead node must not extend the §3.6 streak
	// (its zone predates the death), and the forced full sync resets any
	// running streak.
	for _, kind := range []ViolationKind{ViolationNeighborhood, ViolationSafeZone, ViolationFaulty} {
		coord := streakCoordinator(t) // RDoubleAfter = 3
		// Run the streak to one short of a doubling.
		for k := 0; k < 2; k++ {
			err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
			if err != nil {
				t.Fatal(err)
			}
		}
		before := coord.Stats()
		coord.MarkDead(1)
		err := coord.HandleViolation(&Violation{NodeID: 1, Kind: kind, X: []float64{0.01, 0}})
		if err != nil {
			t.Fatal(err)
		}
		after := coord.Stats()
		if !coord.Live(1) {
			t.Fatalf("kind %v: node 1 not revived", kind)
		}
		if after.Rejoins != before.Rejoins+1 {
			t.Fatalf("kind %v: revival not counted as rejoin", kind)
		}
		// The revival is not a violation: no violation counter moves.
		if after.NeighborhoodViolations != before.NeighborhoodViolations ||
			after.SafeZoneViolations != before.SafeZoneViolations ||
			after.FaultyViolations != before.FaultyViolations {
			t.Fatalf("kind %v: revival counted as a violation: before %+v after %+v", kind, before, after)
		}
		if coord.consecNeigh != 0 {
			t.Fatalf("kind %v: revival full sync left streak at %d", kind, coord.consecNeigh)
		}
		if after.RDoublings != 0 {
			t.Fatalf("kind %v: revival triggered a doubling", kind)
		}
		// The streak really is gone: one more neighborhood violation must not
		// double (2 old + 1 new would have, had the reset been lost).
		err = coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
		if err != nil {
			t.Fatal(err)
		}
		if coord.Stats().RDoublings != 0 {
			t.Fatalf("kind %v: stale streak survived the revival sync", kind)
		}
	}
}

// --- adaptive radius controller --------------------------------------------

// adaptiveCoordinator builds a 2-node ADCD-X coordinator with the controller
// enabled.
func adaptiveCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	return adaptiveCoordinatorWith(t, cfg, func(*radiusController) {})
}

// eagerController gives the controller aggressive EWMA, cooldown and window
// settings so a handful of hand-crafted violations trips a re-tune.
func eagerController(rc *radiusController) { rc.alpha, rc.cooldown, rc.window = 0.8, 2, 4 }

func adaptiveCoordinatorWith(t *testing.T, cfg Config, tune func(*radiusController)) *Coordinator {
	t.Helper()
	f := rosenbrockFunc()
	n := 2
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0, 0})
	}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	tune(coord.radius)
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	return coord
}

func TestControllerOnlyForADCDXWhenEnabled(t *testing.T) {
	saddle := saddleFunc() // constant Hessian → ADCD-E
	if c := NewCoordinator(saddle, 2, Config{Epsilon: 1, AdaptiveR: true}, &Fabric{}); c.radius != nil {
		t.Fatal("controller attached to an ADCD-E coordinator")
	}
	rosen := rosenbrockFunc()
	if c := NewCoordinator(rosen, 2, Config{Epsilon: 1, R: 0.1}, &Fabric{}); c.radius != nil {
		t.Fatal("controller attached without AdaptiveR")
	}
	c := NewCoordinator(rosen, 2, Config{Epsilon: 1, R: 0.1, AdaptiveR: true}, &Fabric{})
	if c.radius == nil {
		t.Fatal("controller missing on an adaptive ADCD-X coordinator")
	}
	if c.radius.alpha != DefaultAdaptiveAlpha {
		t.Fatalf("alpha = %v, want the default %v", c.radius.alpha, DefaultAdaptiveAlpha)
	}
	if c.radius.cooldown != 2*c.Cfg.RDoubleAfter {
		t.Fatalf("cooldown = %d, want %d", c.radius.cooldown, 2*c.Cfg.RDoubleAfter)
	}
}

func TestApplyPendingSwapsOnlyAtFullSync(t *testing.T) {
	coord := adaptiveCoordinator(t, Config{
		Epsilon: 5, R: 0.01, AdaptiveR: true, Decomp: DecompOptions{Seed: 1},
	})
	r0 := coord.R()

	// Stage a shrink: nothing changes until a sync.
	coord.radius.pendingR = r0 / 2
	if coord.R() != r0 {
		t.Fatal("staged radius leaked outside a full sync")
	}
	if coord.PendingR() != r0/2 {
		t.Fatalf("PendingR = %v, want %v", coord.PendingR(), r0/2)
	}
	if err := coord.Resync(); err != nil {
		t.Fatal(err)
	}
	if coord.R() != r0/2 {
		t.Fatalf("r = %v after sync, want staged %v", coord.R(), r0/2)
	}
	if coord.PendingR() != 0 {
		t.Fatal("pendingR not cleared by the swap")
	}
	if st := coord.Stats(); st.RShrinks != 1 || st.RGrows != 0 {
		t.Fatalf("swap direction miscounted: %+v", st)
	}
	if coord.radius.baseR != r0/2 {
		t.Fatalf("baseR = %v, want %v", coord.radius.baseR, r0/2)
	}

	// And a grow.
	coord.radius.pendingR = r0
	if err := coord.Resync(); err != nil {
		t.Fatal(err)
	}
	if coord.R() != r0 {
		t.Fatalf("r = %v after grow swap, want %v", coord.R(), r0)
	}
	if st := coord.Stats(); st.RShrinks != 1 || st.RGrows != 1 {
		t.Fatalf("swap direction miscounted: %+v", st)
	}
}

func TestSwapInvalidatesZoneCacheScope(t *testing.T) {
	coord := adaptiveCoordinator(t, Config{
		Epsilon: 5, R: 0.01, AdaptiveR: true, ZoneCacheSize: 8, Decomp: DecompOptions{Seed: 1},
	})
	if len(coord.zones.keys) == 0 {
		t.Fatal("setup: init should have cached its decomposition")
	}
	coord.radius.pendingR = coord.R() / 2
	if err := coord.Resync(); err != nil {
		t.Fatal(err)
	}
	if coord.Stats().ZoneCacheInvalidations == 0 {
		t.Fatal("radius swap must clear the zone cache")
	}
}

func TestSwapDropsRestoredStreak(t *testing.T) {
	coord := adaptiveCoordinator(t, Config{
		Epsilon: 5, R: 0.01, RDoubleAfter: 5, AdaptiveR: true, Decomp: DecompOptions{Seed: 1},
	})
	neigh := func() {
		t.Helper()
		err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
		if err != nil {
			t.Fatal(err)
		}
	}
	neigh()
	neigh()
	if coord.consecNeigh != 2 {
		t.Fatalf("setup: streak = %d, want 2", coord.consecNeigh)
	}
	// Stage a swap; the next violation's full sync applies it, so the streak
	// restore must be dropped — those violations indicted the old radius.
	coord.radius.pendingR = coord.R() * 1.5
	neigh()
	if coord.consecNeigh != 0 {
		t.Fatalf("streak = %d after a radius swap, want 0", coord.consecNeigh)
	}
}

func TestAdaptiveShrinkAfterStormEndToEnd(t *testing.T) {
	// The headline bug: a burst inflates r via §3.6 and, without the
	// controller, it stays inflated forever. Here a short storm doubles r,
	// then a calm safe-zone-dominated regime trips the shrink trigger; the
	// re-bracket stages a smaller radius and the next sync swaps it in.
	coord := adaptiveCoordinatorWith(t, Config{
		Epsilon: 5, R: 0.01, RDoubleAfter: 2, DisableLazySync: true,
		AdaptiveR: true, Decomp: DecompOptions{Seed: 1},
	}, eagerController)
	r0 := coord.R()

	// Storm: two neighborhood violations double r.
	for k := 0; k < 2; k++ {
		err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if coord.R() != 2*r0 {
		t.Fatalf("setup: storm did not double r (r = %v)", coord.R())
	}

	// Calm: safe-zone violations from points hugging the reference. With
	// α = 0.8 the neighborhood EWMA collapses below the shrink threshold in
	// two observations while the safe-zone and full-sync EWMAs saturate.
	var shrunk bool
	for k := 0; k < 6; k++ {
		err := coord.HandleViolation(&Violation{NodeID: 1, Kind: ViolationSafeZone, X: []float64{0.005, 0}})
		if err != nil {
			t.Fatal(err)
		}
		if coord.R() < 2*r0 {
			shrunk = true
			break
		}
	}
	if !shrunk {
		t.Fatalf("calm regime never shrank r: r = %v, stats %+v", coord.R(), coord.Stats())
	}
	st := coord.Stats()
	if st.AdaptiveRetunes == 0 {
		t.Fatalf("shrink happened without a counted re-tune: %+v", st)
	}
	if st.RShrinks == 0 {
		t.Fatalf("shrink happened without a counted swap: %+v", st)
	}
	if coord.radius.baseR != coord.R() {
		t.Fatalf("baseR = %v not updated to the swapped radius %v", coord.radius.baseR, coord.R())
	}
}

func TestRetuneProbesDoNotPolluteInstruments(t *testing.T) {
	// The controller's background re-brackets replay the window on throwaway
	// coordinators; none of their protocol events may leak into the monitored
	// deployment's counters (beyond the retune/stage events themselves).
	coord := adaptiveCoordinatorWith(t, Config{
		Epsilon: 5, R: 0.01, RDoubleAfter: 2, DisableLazySync: true,
		AdaptiveR: true, Decomp: DecompOptions{Seed: 1},
	}, eagerController)
	for k := 0; k < 2; k++ {
		err := coord.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
		if err != nil {
			t.Fatal(err)
		}
	}
	before := coord.Stats()
	// Trip the shrink trigger; the retune replays the window internally.
	for k := 0; k < 4; k++ {
		err := coord.HandleViolation(&Violation{NodeID: 1, Kind: ViolationSafeZone, X: []float64{0.005, 0}})
		if err != nil {
			t.Fatal(err)
		}
	}
	after := coord.Stats()
	if after.AdaptiveRetunes == 0 {
		t.Skip("retune did not trigger; nothing to check")
	}
	// 4 handled safe-zone violations → exactly 4 more violations and 4 more
	// full syncs on the real coordinator; replay probes would have added
	// dozens.
	if after.SafeZoneViolations != before.SafeZoneViolations+4 {
		t.Fatalf("probe violations leaked into the deployment: %+v → %+v", before, after)
	}
	if after.FullSyncs != before.FullSyncs+4 {
		t.Fatalf("probe syncs leaked into the deployment: %+v → %+v", before, after)
	}
}

func TestAdaptiveDriftFreeRunIsBitIdentical(t *testing.T) {
	// On a stationary (drift-free) stream at a well-fitted radius the
	// controller must never act: the adaptive run's estimate trace is
	// bit-identical to the static run's, swap counters stay zero, and the
	// protocol counters agree exactly.
	mkData := func() TuningData {
		rng := rand.New(rand.NewSource(77))
		data := make(TuningData, 120)
		for r := range data {
			data[r] = make([][]float64, 4)
			for i := 0; i < 4; i++ {
				data[r][i] = []float64{rng.NormFloat64() * 0.2, rng.NormFloat64() * 0.2}
			}
		}
		return data
	}
	run := func(adaptive bool) ([]uint64, CoordStats) {
		f := rosenbrockFunc()
		data := mkData()
		n := 4
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = NewNode(i, f)
			nodes[i].SetData(data[0][i])
		}
		cfg := Config{Epsilon: 0.5, R: 0.4, AdaptiveR: adaptive, Decomp: DecompOptions{Seed: 3}}
		coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
		if err := coord.Init(); err != nil {
			t.Fatal(err)
		}
		var trace []uint64
		for _, round := range data[1:] {
			for i, x := range round {
				if v := nodes[i].UpdateData(x); v != nil {
					if err := coord.HandleViolation(v); err != nil {
						t.Fatal(err)
					}
				}
			}
			trace = append(trace, math.Float64bits(coord.Estimate()))
		}
		return trace, coord.Stats()
	}
	staticTrace, staticStats := run(false)
	adaptiveTrace, adaptiveStats := run(true)
	for i := range staticTrace {
		if staticTrace[i] != adaptiveTrace[i] {
			t.Fatalf("round %d: estimates diverge (static %x, adaptive %x)", i, staticTrace[i], adaptiveTrace[i])
		}
	}
	if adaptiveStats.RShrinks != 0 || adaptiveStats.RGrows != 0 || adaptiveStats.AdaptiveRetunes != 0 {
		t.Fatalf("controller acted on a drift-free run: %+v", adaptiveStats)
	}
	if staticStats != adaptiveStats {
		t.Fatalf("stats diverge:\nstatic   %+v\nadaptive %+v", staticStats, adaptiveStats)
	}
}
