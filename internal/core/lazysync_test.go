package core

import (
	"testing"

	"automon/internal/autodiff"
	"automon/internal/testenv"
)

// fleetComm is a NodeComm over preallocated vectors: a pull returns the
// node's vector itself, and syncs and slacks are dropped, so whatever a
// resolution allocates is the machine's own.
type fleetComm struct {
	xs    [][]float64
	pulls int
}

func (c *fleetComm) RequestData(id int) []float64 { c.pulls++; return c.xs[id] }
func (c *fleetComm) SendSync(int, *Sync)          {}
func (c *fleetComm) SendSlack(int, *Slack)        {}

// lazyFleet is n nodes of f(x) = ‖x‖² (ADCD-E) sitting at (1, 0), monitored
// with ε = 0.5 around x0 = (1, 0). A node that reports (2, 0) while every
// other slacked vector is at x0 is resolved by lazy sync with four pulls:
// the mean first re-enters the zone at (1.2, 0).
type lazyFleet struct {
	coord *Coordinator
	comm  *fleetComm
	v     *Violation
}

func newLazyFleet(tb testing.TB, n int) *lazyFleet {
	tb.Helper()
	f := NewFunction("sqnorm", 2, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.SqNorm(x)
	})
	comm := &fleetComm{xs: make([][]float64, n)}
	for i := range comm.xs {
		comm.xs[i] = []float64{1, 0}
	}
	coord := NewCoordinator(f, n, Config{Epsilon: 0.5}, comm)
	if err := coord.Init(); err != nil {
		tb.Fatal(err)
	}
	if coord.Method() != MethodE {
		tb.Fatalf("fixture monitors with %v, want ADCD-E", coord.Method())
	}
	return &lazyFleet{coord: coord, comm: comm, v: &Violation{Kind: ViolationSafeZone}}
}

// violate moves the least recently balanced node to (x, 0) and resolves the
// safe-zone violation it reports.
func (fl *lazyFleet) violate(tb testing.TB, x float64) {
	id := fl.coord.pickLRU()
	fl.comm.xs[id][0] = x
	fl.v.NodeID, fl.v.X = id, fl.comm.xs[id]
	if err := fl.coord.HandleViolation(fl.v); err != nil {
		tb.Fatal(err)
	}
}

// reset moves every node back to (1, 0) and resyncs, which puts every
// slacked vector back at x0 = (1, 0).
func (fl *lazyFleet) reset(tb testing.TB) {
	for _, x := range fl.comm.xs {
		x[0] = 1
	}
	if err := fl.coord.Resync(); err != nil {
		tb.Fatal(err)
	}
}

// TestLazySyncAllocatesNothing pins what a resolution allocates in the
// machine. A lazy resolution allocates nothing: the fresh marks, the
// balancing set, the mean and the ContainsScratch scratch are the machine's,
// and the partition re-sends one Slack. A failed attempt costs what the full
// sync it falls back to costs, and no more than a Resync of the same fleet:
// emptying marks that hold n/2 pulls is a generation bump.
func TestLazySyncAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const n = 1024
	t.Run("lazy", func(t *testing.T) {
		fl := newLazyFleet(t, n)
		// 101 resolutions of five nodes each touch 505 < n nodes, so every
		// pull finds a slacked vector still at x0.
		pulls := fl.comm.pulls
		allocs := testing.AllocsPerRun(100, func() { fl.violate(t, 2) })
		st := fl.coord.Stats()
		if pulls = fl.comm.pulls - pulls; st.FullSyncs != 1 || st.LazyResolved != 101 || pulls != 4*101 {
			t.Fatalf("%d full syncs, %d lazy resolutions, %d pulls; want 1, 101 and four pulls each",
				st.FullSyncs, st.LazyResolved, pulls)
		}
		if allocs != 0 {
			t.Fatalf("a lazy resolution allocates %.1f objects, want 0", allocs)
		}
	})
	t.Run("failed", func(t *testing.T) {
		fl := newLazyFleet(t, n)
		resync := testing.AllocsPerRun(10, func() {
			if err := fl.coord.Resync(); err != nil {
				t.Fatal(err)
			}
		})
		// No mean of ⌊n/2⌋ + 1 slacked vectors re-enters the zone when one
		// of them is 10⁴ away.
		before := fl.coord.Stats()
		failed := testing.AllocsPerRun(10, func() { fl.violate(t, 1e4) })
		st := fl.coord.Stats()
		if st.LazyAttempts-before.LazyAttempts != 11 || st.LazyResolved != 0 || st.FullSyncs-before.FullSyncs != 11 {
			t.Fatalf("%d attempts, %d resolved, %d full syncs; want 11 failed attempts, each with a full sync",
				st.LazyAttempts-before.LazyAttempts, st.LazyResolved, st.FullSyncs-before.FullSyncs)
		}
		t.Logf("n=%d: a failed lazy attempt allocates %.0f objects, a Resync %.0f", n, failed, resync)
		if failed > resync {
			t.Fatalf("a failed lazy attempt allocates %.0f objects, more than the %.0f of a Resync", failed, resync)
		}
	})
}

// BenchmarkLazySyncFleet times one four-pull lazy resolution in a 1024-node
// fleet. Every 100 resolutions a reset, off the clock, puts every slacked
// vector back at x0, so each resolution balances the same way.
func BenchmarkLazySyncFleet(b *testing.B) {
	fl := newLazyFleet(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 99 {
			b.StopTimer()
			fl.reset(b)
			b.StartTimer()
		}
		fl.violate(b, 2)
	}
}
