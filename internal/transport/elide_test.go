package transport

import (
	"math"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
)

// driveElide runs one loopback cluster over the v2 batched transport through
// a deterministic schedule: a long small-step drift phase (elidable), then a
// spike on node 0 that must violate, then a short settle phase. Returns the
// final estimate, coordinator stats, and how many updates skipped their
// exact check.
func driveElide(t *testing.T, elide bool) (est float64, stats core.CoordStats, elided int64) {
	t.Helper()
	const half, n = 2, 2
	f := funcs.InnerProduct(half)
	initial := [][]float64{{0.5, 0.5, 1, 1}, {0.5, 0.5, 1, 1}}
	// Batching alone upgrades the wire to v2 framed batches (group tag 0).
	opts := Options{Batch: BatchOptions{MaxBytes: 1 << 16, MaxDelay: time.Millisecond}}
	coord, nodes := startCluster(t, f, n, core.Config{Epsilon: 0.2}, opts, initial)
	defer coord.Close()
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	if elide {
		for _, nd := range nodes {
			if !nd.EnableElision() {
				t.Fatal("inner product has a constant Hessian; elision must enable")
			}
		}
	}
	upd := func(i int, x []float64) {
		var err error
		if elide {
			err = nodes[i].UpdateElided(x)
		} else {
			err = nodes[i].Update(x)
		}
		if err != nil {
			t.Fatalf("node %d update: %v", i, err)
		}
	}
	for step := 1; step <= 40; step++ {
		for i := range nodes {
			u := 0.5 + 0.002*float64(step) + 0.001*float64(i)
			upd(i, []float64{u, u, 1, 1})
		}
	}
	upd(0, []float64{3, 3, 1, 1}) // spike: must violate and resync
	// The spike's Update returns once node 0 is back inside its zone; node 1's
	// copy of that sync may still be in flight. Let it land, or whether node
	// 1's next update is checked against the old zone or the new one (and so
	// the violation count) depends on the scheduler.
	waitQuiesce(coord, nodes)
	for step := 1; step <= 5; step++ {
		upd(1, []float64{0.6, 0.6, 1, 1})
	}
	// Wait for async resolution traffic to quiesce before reading state.
	waitQuiesce(coord, nodes)
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		elided += nd.ElidedUpdates()
	}
	return coord.Estimate(), coord.CoordStats(), elided
}

// TestClusterElidedMatchesPerUpdate runs the same deterministic schedule
// through the per-update and elided clients over the batched v2 wire and
// demands the same protocol outcome: identical sync counts, an identical
// final estimate, and a real share of checks skipped — while the spike is
// still caught immediately.
func TestClusterElidedMatchesPerUpdate(t *testing.T) {
	estRef, statsRef, elidedRef := driveElide(t, false)
	if elidedRef != 0 {
		t.Fatalf("per-update run reported %d elided checks", elidedRef)
	}
	estEl, statsEl, elided := driveElide(t, true)
	if elided == 0 {
		t.Fatal("elided run never skipped a check during the drift phase")
	}
	if math.Float64bits(estRef) != math.Float64bits(estEl) {
		t.Fatalf("estimates diverge: per-update %v, elided %v", estRef, estEl)
	}
	if statsRef.FullSyncs != statsEl.FullSyncs || statsRef.SafeZoneViolations != statsEl.SafeZoneViolations {
		t.Fatalf("protocol stats diverge:\nper-update %+v\nelided     %+v", statsRef, statsEl)
	}
	// The spike resynced the group, so the estimate reflects it within ε.
	truth := f2Truth()
	if math.Abs(estEl-truth) > 0.2+1e-9 {
		t.Fatalf("elided estimate %v missed the spike (truth %v)", estEl, truth)
	}
}

// f2Truth is the ground truth of the schedule's final state:
// x̄ = ([3,3,1,1] + [0.6,0.6,1,1])/2, f = ⟨u,v⟩.
func f2Truth() float64 {
	u := (3.0 + 0.6) / 2
	return 2 * u * 1
}
