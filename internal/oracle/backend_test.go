package oracle_test

// The eigen-backend sweep: the same differential table that proves the 1·ε /
// 3·ε bounds under the default L-BFGS engine is replayed with the certified
// interval backend and with the hybrid, because switching the eigen-engine
// must never change what the protocol guarantees — only how the curvature
// bounds are obtained. Every interval run is held to 1·ε: its DC split holds
// on all of the box the zone confines each node to, so the paper's guarantee
// is a derivation there, not a search result; only the hybrid, whose bounds
// may come from the search, keeps its spec's tolerance. For the interval runs the coordinator's own counters
// double as the end-to-end "no optimizer work" proof: zero optimizer
// eigensolves over entire replays. A final cross-check compares the two
// engines at matching (x0, r): the certificate should enclose whatever the
// sampling-based search found; a violation is logged for investigation (it
// would indicate an unsound search escape, not a broken certificate), never
// failed.

import (
	"testing"

	"automon/internal/core"
	"automon/internal/oracle"
)

func TestBackendSweep(t *testing.T) {
	for _, backend := range []core.EigBackend{core.BackendInterval, core.BackendHybrid} {
		backend := backend
		for _, sp := range specs(t) {
			sp := sp
			sp.Core.Decomp.Backend = backend
			if backend == core.BackendInterval {
				sp.Tolerance = 1
			}
			name := sp.Name + "/" + backend.String()
			adcdX := sp.Core.R > 0
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				rep, err := oracle.Replay(sp)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Rounds) != sp.Rounds {
					t.Fatalf("replayed %d rounds, want %d", len(rep.Rounds), sp.Rounds)
				}
				if len(rep.Bad) > 0 {
					r := rep.Rounds[rep.Bad[0]-1]
					t.Errorf("%d rounds broke the %v bound under the %v backend; first: round %d estimate %v truth %v (err %v)",
						len(rep.Bad), rep.Bound, backend, r.Round, r.Estimate, r.Truth, r.Err)
				}
				if !adcdX {
					return // ADCD-E never builds X zones; the backend is inert
				}
				st := rep.Stats
				switch backend {
				case core.BackendInterval:
					if st.EigBoundBuildsInterval == 0 {
						t.Error("no interval-certified zone builds recorded")
					}
					if st.EigBoundBuildsLBFGS != 0 || st.EigBoundBuildsHybrid != 0 {
						t.Errorf("foreign backend builds recorded: lbfgs=%d hybrid=%d",
							st.EigBoundBuildsLBFGS, st.EigBoundBuildsHybrid)
					}
					if st.OptEvals != 0 {
						t.Errorf("interval replay ran %d optimizer eigensolves, want 0", st.OptEvals)
					}
				case core.BackendHybrid:
					if st.EigBoundBuildsHybrid == 0 {
						t.Error("no hybrid zone builds recorded")
					}
					if st.HybridRefines > 0 && st.OptEvals == 0 {
						t.Error("hybrid refinements recorded but zero optimizer eigensolves")
					}
				}
			})
		}
	}
}

// TestIntervalEnclosesLBFGSAtMatchingBoxes cross-checks the engines outside
// the protocol: at the (x0, r) pairs the ADCD-X schedules visit, the
// certificate must enclose the search result. Because the search is the
// unsound party here, a violation is surfaced with t.Logf for investigation
// rather than failing the build.
func TestIntervalEnclosesLBFGSAtMatchingBoxes(t *testing.T) {
	const slop = 1e-9
	checked, flagged := 0, 0
	for _, sp := range specs(t) {
		if sp.Core.R == 0 {
			continue // ADCD-E: no neighborhood box to compare over
		}
		d := sp.F.Dim()
		for r := 0; r < 3; r++ {
			x0 := sp.Gen(r, 0)[:d]
			lo := make([]float64, d)
			hi := make([]float64, d)
			for i, v := range x0 {
				lo[i], hi[i] = v-sp.Core.R, v+sp.Core.R
			}
			lb, err := core.DecomposeX(sp.F, x0, lo, hi, core.DecompOptions{Backend: core.BackendLBFGS, Seed: 1})
			if err != nil {
				t.Fatalf("%s r=%d lbfgs: %v", sp.Name, r, err)
			}
			iv, err := core.DecomposeX(sp.F, x0, lo, hi, core.DecompOptions{Backend: core.BackendInterval, Seed: 1})
			if err != nil {
				t.Fatalf("%s r=%d interval: %v", sp.Name, r, err)
			}
			checked++
			if iv.LamAbsNeg < lb.LamAbsNeg-slop || iv.LamPosMax < lb.LamPosMax-slop {
				flagged++
				t.Logf("%s r=%d: certificate [|λ⁻|=%v, λ⁺=%v] does not enclose search [|λ⁻|=%v, λ⁺=%v] at x0=%v R=%v",
					sp.Name, r, iv.LamAbsNeg, iv.LamPosMax, lb.LamAbsNeg, lb.LamPosMax, x0, sp.Core.R)
			}
		}
	}
	if checked == 0 {
		t.Fatal("cross-check compared nothing")
	}
	t.Logf("cross-checked %d (x0, r) boxes, %d flagged", checked, flagged)
}
