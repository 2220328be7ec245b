package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"automon/internal/obs"
)

// --- Thresholds: multiplicative floor -------------------------------------

func TestThresholdsMultiplicativeFloor(t *testing.T) {
	f := saddleFunc()
	cases := []struct {
		name         string
		cfg          Config
		floor        float64 // 0 keeps DefaultThresholdFloor
		f0           float64
		wantL, wantU float64
	}{
		{
			name: "zero f0 gets the default floor",
			cfg:  Config{Epsilon: 0.1, ErrorType: Multiplicative},
			f0:   0, wantL: -DefaultThresholdFloor, wantU: DefaultThresholdFloor,
		},
		{
			name:  "tiny f0 widens to the custom floor",
			cfg:   Config{Epsilon: 0.1, ErrorType: Multiplicative},
			floor: 0.05, f0: 1e-6, wantL: 1e-6 - 0.05, wantU: 1e-6 + 0.05,
		},
		{
			name:  "large f0 is unaffected by the floor",
			cfg:   Config{Epsilon: 0.1, ErrorType: Multiplicative},
			floor: 0.05, f0: 10, wantL: 9, wantU: 11,
		},
		{
			name:  "negative f0 stays ordered and floored",
			cfg:   Config{Epsilon: 0.1, ErrorType: Multiplicative},
			floor: 0.5, f0: -1, wantL: -1.5, wantU: -0.5,
		},
		{
			name:  "additive error ignores the floor",
			cfg:   Config{Epsilon: 0.25},
			floor: 5, f0: 1, wantL: 0.75, wantU: 1.25,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(f, 2, tc.cfg, &Fabric{})
			if tc.floor != 0 {
				c.thresholdFloor = tc.floor
			}
			l, u := c.Thresholds(tc.f0)
			if math.Abs(l-tc.wantL) > 1e-12 || math.Abs(u-tc.wantU) > 1e-12 {
				t.Fatalf("Thresholds(%v) = (%v, %v), want (%v, %v)", tc.f0, l, u, tc.wantL, tc.wantU)
			}
			if l > u {
				t.Fatalf("Thresholds(%v) inverted: (%v, %v)", tc.f0, l, u)
			}
		})
	}
}

func TestMultiplicativeFloorPreventsViolationStorm(t *testing.T) {
	// The saddle function is ≈ 0 when all nodes sit near the origin, so
	// multiplicative thresholds collapse and every noisy update becomes a
	// violation. A floor commensurate with the noise absorbs them.
	f := saddleFunc()
	data := make(TuningData, 120)
	for r := range data {
		// Deterministic jitter around the origin, alternating sign so the
		// average stays ≈ 0 and f(x̄) keeps hovering at its zero crossing.
		j := 0.001 * float64(r%7)
		data[r] = [][]float64{{j, -j}, {-j, j}, {j / 2, j / 3}, {-j / 2, -j / 3}}
	}

	run := func(floor float64) int {
		_, coord, _ := runProtocolWith(t, f, data, Config{Epsilon: 0.1, ErrorType: Multiplicative},
			func(c *Coordinator) { c.thresholdFloor = floor })
		return coord.Stats().FullSyncs
	}
	stormy := run(1e-12) // effectively no floor: zero-width interval
	calm := run(0.05)    // floor above the jitter amplitude
	if calm >= stormy/4 {
		t.Fatalf("floor did not calm the violation storm: %d full syncs with floor vs %d without", calm, stormy)
	}
	if calm > 2 {
		t.Fatalf("floored run should sync at most on init, got %d full syncs", calm)
	}
}

// --- consecNeigh streak reset ---------------------------------------------

// streakCoordinator builds a 2-node ADCD-X coordinator with RDoubleAfter=3
// whose violations the test crafts by hand.
func streakCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	f := rosenbrockFunc()
	n := 2
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0, 0})
	}
	cfg := Config{Epsilon: 5, R: 0.01, RDoubleAfter: 3, Decomp: DecompOptions{Seed: 1}}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	return coord
}

func TestNeighborhoodStreakResets(t *testing.T) {
	// Any full sync not caused by a neighborhood violation must reset the
	// §3.6 streak; before the fix only safe-zone violations did, so faulty
	// violations, rejoins, and explicit resyncs let non-consecutive
	// neighborhood violations accumulate into a spurious r-doubling.
	neigh := func(c *Coordinator) error {
		return c.HandleViolation(&Violation{NodeID: 0, Kind: ViolationNeighborhood, X: []float64{0.02, 0}})
	}
	cases := []struct {
		name        string
		interrupt   func(c *Coordinator) error
		wantDouble  bool
		wantStreak  int
		extraNeighs int // neighborhood violations after the interrupt
	}{
		{
			name:       "three consecutive neighborhood violations still double r",
			interrupt:  nil,
			wantDouble: true, wantStreak: 0, extraNeighs: 1,
		},
		{
			name: "faulty violation resets the streak",
			interrupt: func(c *Coordinator) error {
				return c.HandleViolation(&Violation{NodeID: 1, Kind: ViolationFaulty, X: []float64{0.01, 0}})
			},
			wantDouble: false, wantStreak: 1, extraNeighs: 1,
		},
		{
			name: "safe-zone violation resets the streak",
			interrupt: func(c *Coordinator) error {
				return c.HandleViolation(&Violation{NodeID: 1, Kind: ViolationSafeZone, X: []float64{0.005, 0}})
			},
			wantDouble: false, wantStreak: 1, extraNeighs: 1,
		},
		{
			name: "rejoin full sync resets the streak",
			interrupt: func(c *Coordinator) error {
				return c.HandleRejoin([]int{1}, [][]float64{{0, 0}})
			},
			wantDouble: false, wantStreak: 1, extraNeighs: 1,
		},
		{
			name: "revival via violation from a dead node resets the streak",
			interrupt: func(c *Coordinator) error {
				c.MarkDead(1)
				return c.HandleViolation(&Violation{NodeID: 1, Kind: ViolationSafeZone, X: []float64{0.01, 0}})
			},
			wantDouble: false, wantStreak: 1, extraNeighs: 1,
		},
		{
			name:       "explicit Resync resets the streak",
			interrupt:  func(c *Coordinator) error { return c.Resync() },
			wantDouble: false, wantStreak: 1, extraNeighs: 1,
		},
		{
			name:       "departure full sync resets the streak",
			interrupt:  func(c *Coordinator) error { return c.HandleDeparture(1) },
			wantDouble: false, wantStreak: 1, extraNeighs: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := streakCoordinator(t)
			r0 := coord.R()
			// Two neighborhood violations: streak = 2, one short of doubling.
			for k := 0; k < 2; k++ {
				if err := neigh(coord); err != nil {
					t.Fatal(err)
				}
			}
			if coord.consecNeigh != 2 {
				t.Fatalf("streak after 2 neighborhood violations = %d, want 2", coord.consecNeigh)
			}
			if tc.interrupt != nil {
				if err := tc.interrupt(coord); err != nil {
					t.Fatal(err)
				}
				if coord.consecNeigh != 0 {
					t.Fatalf("streak after interrupting full sync = %d, want 0", coord.consecNeigh)
				}
			}
			for k := 0; k < tc.extraNeighs; k++ {
				if err := neigh(coord); err != nil {
					t.Fatal(err)
				}
			}
			doubled := coord.R() > r0
			if doubled != tc.wantDouble {
				t.Fatalf("r = %v (was %v), doubled = %v, want %v", coord.R(), r0, doubled, tc.wantDouble)
			}
			if coord.consecNeigh != tc.wantStreak {
				t.Fatalf("final streak = %d, want %d", coord.consecNeigh, tc.wantStreak)
			}
			wantDoublings := 0
			if tc.wantDouble {
				wantDoublings = 1
			}
			if coord.Stats().RDoublings != wantDoublings {
				t.Fatalf("RDoublings = %d, want %d", coord.Stats().RDoublings, wantDoublings)
			}
		})
	}
}

// --- Tune: memoization and bracket convergence ----------------------------

// syntheticReplay fabricates Algorithm-2 violation profiles as a function of
// r and counts how often each radius is actually replayed.
type syntheticReplay struct {
	counts  func(r float64) ReplayCounts
	mu      sync.Mutex // a wave replays several radii at once
	replays map[float64]int
}

func (s *syntheticReplay) run(r float64) (ReplayCounts, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replays == nil {
		s.replays = make(map[float64]int)
	}
	s.replays[r]++
	return s.counts(r), nil
}

// wellBehaved is a canonical profile: safe-zone violations grow with r,
// neighborhood violations shrink with r, both vanishing inside the budget.
func wellBehaved(r float64) ReplayCounts {
	c := ReplayCounts{}
	if r > 0.01 {
		c.SafeZone = int(r * 100)
	}
	if r < 4 {
		c.Neighborhood = int(4 / (r + 1e-9))
	}
	return c
}

func TestTuneNeverReplaysTheSameRadiusTwice(t *testing.T) {
	for _, width := range waveWidths {
		s := &syntheticReplay{counts: wellBehaved}
		res, err := tuneWaves(s.run, width)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for r, n := range s.replays {
			total += n
			if n > 1 {
				t.Errorf("width %d: radius %v replayed %d times, want at most 1", width, r, n)
			}
		}
		if res.Replays != total {
			t.Fatalf("width %d: Replays = %d, but %d distinct replays ran", width, res.Replays, total)
		}
		// The grid endpoints coincide with lo and hi, which the phase-2 walks
		// already replayed — the per-radius ≤1 check above only bites if
		// memoization actually deduplicated those revisits.
		if len(res.GridR) == 0 || res.GridR[0] != res.Lo || res.GridR[len(res.GridR)-1] != res.Hi {
			t.Fatalf("width %d: grid %v does not revisit bracket [%v, %v]", width, res.GridR, res.Lo, res.Hi)
		}
		if !res.LoConverged || !res.HiConverged {
			t.Fatalf("width %d: well-behaved profile must converge both ends: %+v", width, res)
		}
	}
}

func TestTuneRecordsBracketConvergence(t *testing.T) {
	cases := []struct {
		name               string
		counts             func(r float64) ReplayCounts
		wantLo, wantHi     bool
		wantErr            error
		wantRInsideBracket bool
	}{
		{
			name:   "both ends converge",
			counts: wellBehaved,
			wantLo: true, wantHi: true, wantErr: nil, wantRInsideBracket: true,
		},
		{
			name: "lo never sheds safe-zone violations",
			counts: func(r float64) ReplayCounts {
				// Safe-zone violations at every radius; neighborhood
				// violations vanish for large r.
				c := ReplayCounts{SafeZone: 5}
				if r < 2 {
					c.Neighborhood = 3
				}
				return c
			},
			wantLo: false, wantHi: true, wantErr: nil, wantRInsideBracket: true,
		},
		{
			name: "hi never sheds neighborhood violations",
			counts: func(r float64) ReplayCounts {
				c := ReplayCounts{Neighborhood: 3}
				if r > 0.5 {
					c.SafeZone = 5
				}
				return c
			},
			wantLo: true, wantHi: false, wantErr: nil, wantRInsideBracket: true,
		},
		{
			name: "neither end converges",
			counts: func(r float64) ReplayCounts {
				return ReplayCounts{SafeZone: 5, Neighborhood: 5}
			},
			wantLo: false, wantHi: false, wantErr: ErrBracketNotConverged, wantRInsideBracket: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, width := range waveWidths {
				s := &syntheticReplay{counts: tc.counts}
				res, err := tuneWaves(s.run, width)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("width %d: err = %v, want %v", width, err, tc.wantErr)
				}
				want, wantErr := tuneSequential(func(r float64) (ReplayCounts, error) { return tc.counts(r), nil })
				requireSameTuning(t, fmt.Sprintf("width %d", width), res, want, err, wantErr)
				if res.LoConverged != tc.wantLo || res.HiConverged != tc.wantHi {
					t.Fatalf("convergence = (lo %v, hi %v), want (lo %v, hi %v)",
						res.LoConverged, res.HiConverged, tc.wantLo, tc.wantHi)
				}
				for r, n := range s.replays {
					if n > 1 {
						t.Errorf("radius %v replayed %d times, want at most 1", r, n)
					}
				}
				if tc.wantRInsideBracket && (res.R < res.Lo-1e-12 || res.R > res.Hi+1e-12) {
					t.Fatalf("chosen r %v outside bracket [%v, %v]", res.R, res.Lo, res.Hi)
				}
				// Even a non-converged result must be inspectable: the grid ran
				// and the bracket it searched is recorded.
				if len(res.GridR) == 0 || res.Lo <= 0 || res.Hi <= 0 {
					t.Fatalf("result not inspectable: %+v", res)
				}
			}
		})
	}
}

// --- CoordStats is a view over the metric registry ------------------------

func TestCoordinatorMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(9))
	f := saddleFunc()
	starts := [][]float64{{0, 0}, {0.1, 0.1}, {-0.1, 0.1}}
	targets := [][]float64{{1, 0.5}, {0.8, 0.6}, {1.2, 0.4}}
	data := driftData(rng, 80, starts, targets, 0.02)
	_, coord, _ := runProtocol(t, f, data, Config{Epsilon: 0.2, Metrics: reg})

	stats := coord.Stats()
	snap := reg.Snapshot()
	for name, want := range map[string]int{
		"automon_coordinator_full_syncs_total":                      stats.FullSyncs,
		"automon_coordinator_lazy_sync_attempts_total":              stats.LazyAttempts,
		"automon_coordinator_lazy_syncs_resolved_total":             stats.LazyResolved,
		`automon_coordinator_violations_total{kind="neighborhood"}`: stats.NeighborhoodViolations,
		`automon_coordinator_violations_total{kind="safe_zone"}`:    stats.SafeZoneViolations,
		`automon_coordinator_violations_total{kind="faulty"}`:       stats.FaultyViolations,
		"automon_coordinator_r_doublings_total":                     stats.RDoublings,
		"automon_coordinator_node_deaths_total":                     stats.NodeDeaths,
		"automon_coordinator_rejoins_total":                         stats.Rejoins,
	} {
		got, ok := snap[name]
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		if int(got) != want {
			t.Errorf("metric %s = %v, Stats reports %d", name, got, want)
		}
	}
	if got := snap["automon_coordinator_live_nodes"]; int(got) != coord.LiveCount() {
		t.Errorf("live_nodes gauge = %v, want %d", got, coord.LiveCount())
	}
	if got := snap[`automon_coordinator_balancing_set_size_count`]; int64(got) != int64(stats.LazyResolved) {
		t.Errorf("balancing-set histogram count = %v, want %d (one observation per resolved lazy sync)", got, stats.LazyResolved)
	}
	if stats.FullSyncs == 0 || stats.SafeZoneViolations == 0 {
		t.Fatalf("run too quiet to validate identity: %+v", stats)
	}
}

func TestTuneEndToEndStillConverges(t *testing.T) {
	// The real Algorithm-2 path (Rosenbrock replay) must keep working after
	// the memoization refactor, and report a converged bracket.
	f := rosenbrockFunc()
	n := 4
	data := rosenbrockData(rand.New(rand.NewSource(41)), 80, n)
	res, err := Tune(f, data, n, Config{Epsilon: 0.25, Decomp: DecompOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LoConverged || !res.HiConverged {
		t.Fatalf("bracket did not converge on well-behaved data: %+v", res)
	}
}

func TestTuneReplaysDoNotPolluteSharedRegistry(t *testing.T) {
	// Tuning replays must run on private instruments. With get-or-create
	// registration, replays sharing the caller's registry would all read and
	// write the same automon_coordinator_* counters, so the bracketing search
	// would see violation counts accumulated across every prior replay (hi
	// could never reach zero neighborhood violations) and the caller's scrape
	// would absorb the probes' events.
	f := rosenbrockFunc()
	n := 4
	data := rosenbrockData(rand.New(rand.NewSource(41)), 80, n)
	base, err := Tune(f, data, n, Config{Epsilon: 0.25, Decomp: DecompOptions{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	shared, err := Tune(f, data, n, Config{
		Epsilon: 0.25, Decomp: DecompOptions{Seed: 2}, Metrics: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.R != base.R || shared.Counts != base.Counts || shared.Replays != base.Replays ||
		shared.LoConverged != base.LoConverged || shared.HiConverged != base.HiConverged {
		t.Fatalf("shared registry changed tuning:\nbase   %+v\nshared %+v", base, shared)
	}
	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Fatalf("tuning replays registered metrics in the caller's registry: %v", snap)
	}
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("tuning replays recorded %d events in the caller's tracer", n)
	}
}
