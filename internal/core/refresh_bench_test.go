package core_test

import (
	"math/rand"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
)

// refreshCase is an elision-enabled node with a point that passes its zone
// and one that fails the safe zone inside the neighborhood.
type refreshCase struct {
	name       string
	node       *core.Node
	pass, fail []float64
}

// refreshCases builds the two zones the socket benchmarks check: ADCD-E over
// F₂ of an AMS 4×64 sketch (d = 256) and ADCD-X over KLD of two 50-bin
// histograms (d = 100).
func refreshCases(b *testing.B) []refreshCase {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var cases []refreshCase

	f2 := funcs.AMSF2(4, 64)
	x0 := make([]float64, f2.Dim())
	for i := range x0 {
		x0[i] = 20 * rng.NormFloat64()
	}
	dec, err := core.DecomposeE(f2, x0)
	if err != nil {
		b.Fatal(err)
	}
	f0 := f2.Value(x0)
	z := core.BuildZoneE(f2, dec, x0, f0-0.1*f0, f0+0.1*f0)
	fail := linalg.Clone(x0)
	linalg.Scale(fail, 1.1, fail)
	cases = append(cases, refreshCase{f2.Name, refreshNode(b, f2, z, 0), x0, fail})

	const bins = 50
	kld := funcs.KLD(bins, 1.0/800)
	x0 = make([]float64, 2*bins)
	for i := range x0 {
		x0[i] = (1 + rng.Float64()) / (1.5 * bins)
	}
	grad := make([]float64, kld.Dim())
	f0 = kld.Grad(x0, grad)
	const r = 0.05
	bLo, bHi := core.NeighborhoodBox(kld, x0, r, nil, nil)
	z, err = core.BuildZoneX(kld, x0, f0-0.02, f0+0.02, bLo, bHi,
		core.DecompOptions{Seed: 1, OptStarts: 1, OptMaxIter: 25, OptMaxFunEvals: 150})
	if err != nil {
		b.Fatal(err)
	}
	fail = linalg.Clone(x0)
	for i := 0; i < bins; i += 2 {
		fail[i] += 0.02
	}
	cases = append(cases, refreshCase{kld.Name, refreshNode(b, kld, z, r), x0, fail})

	for _, c := range cases {
		if v := c.node.UpdateDataRefresh(c.fail); v == nil || v.Kind != core.ViolationSafeZone {
			b.Fatalf("%s: the failing point gives %+v, want a safe-zone violation", c.name, v)
		}
		if v := c.node.UpdateDataRefresh(c.pass); v != nil {
			b.Fatalf("%s: the passing point gives %+v", c.name, v)
		}
	}
	return cases
}

func refreshNode(b *testing.B, f *core.Function, z *core.SafeZone, r float64) *core.Node {
	b.Helper()
	n := core.NewNode(0, f)
	m := &core.Sync{Method: z.Method, Kind: z.Kind, X0: z.X0, F0: z.F0, GradF0: z.GradF0,
		L: z.L, U: z.U, Lam: z.Lam, R: r, Slack: make([]float64, f.Dim())}
	if z.Method == core.MethodE {
		m.WithMatrix, m.Matrix = true, z.H
	}
	if !n.ApplySync(m) || !n.EnableElision() {
		b.Fatalf("%s: node refused its zone or elision", f.Name)
	}
	return n
}

// BenchmarkUpdateDataRefresh times the elided path's exact check — the one
// an event runs when its budget is spent — on a passing point, which also
// refreshes the budget, and on a failing one, which pays the same forward
// and reverse pass and refreshes nothing.
func BenchmarkUpdateDataRefresh(b *testing.B) {
	for _, c := range refreshCases(b) {
		for _, pt := range []struct {
			name string
			x    []float64
			fail bool
		}{{"pass", c.pass, false}, {"fail", c.fail, true}} {
			b.Run(c.name+"/"+pt.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if v := c.node.UpdateDataRefresh(pt.x); (v != nil) != pt.fail {
						b.Fatalf("violation %+v", v)
					}
				}
			})
		}
	}
}

// BenchmarkUpdateElided times the elided step an event takes while its
// displacement stays in budget — copy the vector in, measure how far it is
// from the last checked point, skip the check — on the F₂ 4×64 zone
// (d = 256) the quiet socket benchmark runs.
func BenchmarkUpdateElided(b *testing.B) {
	c := refreshCases(b)[0]
	near := linalg.Clone(c.pass)
	near[0] += 1e-3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, skipped := c.node.UpdateElided(near); v != nil || !skipped {
			b.Fatalf("the step was not elided: %+v", v)
		}
	}
}

// BenchmarkUpdateSparse times the sparse elided step a sketch event takes on
// the same F₂ 4×64 zone: four cells, one per sketch row, move and move back,
// the displacement stays in budget and the check is skipped.
func BenchmarkUpdateSparse(b *testing.B) {
	c := refreshCases(b)[0]
	if v := c.node.UpdateDataRefresh(c.pass); v != nil {
		b.Fatalf("the checked point violates: %+v", v)
	}
	idx := []int{3, 64 + 17, 128 + 40, 192 + 9}
	vals := [2][]float64{make([]float64, len(idx)), make([]float64, len(idx))}
	for k, i := range idx {
		vals[0][k], vals[1][k] = c.pass[i]+1e-3, c.pass[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, skipped := c.node.UpdateSparse(idx, vals[i&1]); v != nil || !skipped {
			b.Fatalf("the step was not elided: %+v", v)
		}
	}
}
