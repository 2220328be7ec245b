package funcs

// The ADCD-E zone keeps its quadratic term as eigenpairs. These tests hold
// that form to the dense d×d one it replaced, on every constant-Hessian
// function of the zoo.

import (
	"math"
	"math/rand"
	"testing"

	"automon/internal/core"
	"automon/internal/linalg"
	"automon/internal/testenv"
)

// constantHessianZoo lists the bundled functions ADCD-E applies to, with the
// rank the Kind-matching part of each Hessian must have.
var constantHessianZoo = []struct {
	f    *core.Function
	rank int
}{
	{AMSF2(4, 64), 0},                  // H = ½·I: convex kind, H⁻ = 0
	{SqNorm(8), 0},                     // H = 2·I: convex kind, H⁻ = 0
	{Variance(), 0},                    // H = diag(−2, 0): concave kind, H⁺ = 0
	{InnerProduct(20), 20},             // eigenvalues ±1, 20 each: convex kind
	{Saddle(), 1},                      // H = diag(−2, 2): convex kind
	{QuadraticForm(diag(1, 0, -3)), 1}, // concave kind; the zero eigenvalue is in neither part
	{RandomQuadratic(16, 3), -1},       // generic inertia, rank not pinned
}

func diag(vals ...float64) *linalg.Mat {
	m := linalg.NewMat(len(vals), len(vals))
	for i, v := range vals {
		m.Set(i, i, v)
	}
	return m
}

// denseSplit is the dense reference: the NSD and PSD parts of h rebuilt as
// d×d matrices from its eigenpairs and symmetrized, which is how the zone
// held them before it kept the eigenpairs themselves.
func denseSplit(t *testing.T, h *linalg.Mat) (minus, plus *linalg.Mat) {
	t.Helper()
	values, q, err := linalg.EigenSym(h, true)
	if err != nil {
		t.Fatal(err)
	}
	n := h.Rows
	minus, plus = linalg.NewMat(n, n), linalg.NewMat(n, n)
	for k, lam := range values {
		dst := plus
		if lam < 0 {
			dst = minus
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dst.Data[i*n+j] += lam * q.At(i, k) * q.At(j, k)
			}
		}
	}
	minus.Symmetrize()
	plus.Symmetrize()
	return minus, plus
}

// quadForm returns vᵀ·m·v for a square matrix m.
func quadForm(m *linalg.Mat, v []float64) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += v[i] * linalg.Dot(m.Row(i), v)
	}
	return s
}

func TestFactoredZoneMatchesDense(t *testing.T) {
	const eps = 2.220446049250313e-16
	rng := rand.New(rand.NewSource(9))
	for _, c := range constantHessianZoo {
		f := c.f
		d := f.Dim()
		x0 := make([]float64, d)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		dec, err := core.DecomposeE(f, x0)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if err := dec.H.Check(d); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if c.rank >= 0 && len(dec.H.Lam) != c.rank {
			t.Errorf("%s (%v): factor rank %d, want %d", f.Name, dec.Kind, len(dec.H.Lam), c.rank)
		}
		h := linalg.NewMat(d, d)
		f.Hessian(x0, h)
		minus, plus := denseSplit(t, h)
		dense, sign := minus, -0.5
		if dec.Kind == core.ConcaveDiff {
			dense, sign = plus, 0.5
		}
		norm := math.Max(math.Abs(dec.LamMin), math.Abs(dec.LamMax))

		f0 := f.Value(x0)
		zone := core.BuildZoneE(f, dec, x0, f0-1, f0+1)
		v := make([]float64, d)
		diff := make([]float64, d)
		for probe := 0; probe < 32; probe++ {
			for i := range v {
				v[i] = x0[i] + rng.NormFloat64()*math.Pow(10, float64(probe%4-2))
			}
			linalg.Sub(diff, v, x0)
			got, ref := sign*dec.H.QuadForm(diff), sign*quadForm(dense, diff)
			if got < 0 {
				t.Fatalf("%s: q = %v < 0", f.Name, got)
			}
			if tol := 16 * float64(d) * eps * norm * linalg.Dot(diff, diff); math.Abs(got-ref) > tol {
				t.Fatalf("%s: factored q %v vs dense %v (tol %v)", f.Name, got, ref, tol)
			}
			if c.rank == 0 && got != 0 {
				t.Fatalf("%s: rank-0 q = %v, want exactly 0", f.Name, got)
			}
		}
		if testenv.RaceEnabled {
			continue // allocation counts are unstable under -race
		}
		copy(v, x0)
		if allocs := testing.AllocsPerRun(100, func() { zone.ContainsScratch(f, v, diff) }); allocs != 0 {
			t.Errorf("%s: ContainsScratch allocates %.1f objects per run, want 0", f.Name, allocs)
		}
	}
}

// firstSyncs captures what a coordinator sends each node at Init.
type firstSyncs struct {
	xs    [][]float64
	syncs []*core.Sync
}

func (c *firstSyncs) RequestData(id int) []float64    { return c.xs[id] }
func (c *firstSyncs) SendSync(id int, m *core.Sync)   { c.syncs[id] = m }
func (c *firstSyncs) SendSlack(id int, m *core.Slack) {}

// TestF2FirstSyncCarriesNoMatrix pins the wire size the sketch F₂ query
// pays for ADCD-E: H = ½·I has no negative eigenvalue, so the first sync
// ships a rank-0 factor (8 bytes of header) instead of 256² floats.
func TestF2FirstSyncCarriesNoMatrix(t *testing.T) {
	f := AMSF2(4, 64)
	const n = 3
	comm := &firstSyncs{xs: make([][]float64, n), syncs: make([]*core.Sync, n)}
	rng := rand.New(rand.NewSource(4))
	for i := range comm.xs {
		comm.xs[i] = make([]float64, f.Dim())
		for j := range comm.xs[i] {
			comm.xs[i][j] = rng.NormFloat64()
		}
	}
	coord := core.NewCoordinator(f, n, core.Config{Epsilon: 0.1}, comm)
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	if coord.Method() != core.MethodE {
		t.Fatalf("F2 must decompose via ADCD-E, got %v", coord.Method())
	}
	for i, m := range comm.syncs {
		if m == nil || !m.WithMatrix || m.Matrix == nil {
			t.Fatalf("node %d: first sync carries no factor: %+v", i, m)
		}
		if k := len(m.Matrix.Lam); k != 0 || m.Kind != core.ConvexDiff {
			t.Fatalf("node %d: %v factor of rank %d, want convex rank 0", i, m.Kind, k)
		}
		size := len(m.Encode())
		if size >= 7000 {
			t.Fatalf("node %d: first sync is %d bytes, want < 7000", i, size)
		}
		got, err := core.Decode(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		node := core.NewNode(i, f)
		if !node.ApplySync(got.(*core.Sync)) || node.Zone() == nil {
			t.Fatalf("node %d: decoded first sync refused", i)
		}
		if v := node.UpdateData(comm.xs[i]); v != nil {
			t.Fatalf("node %d: violation right after its own sync: %+v", i, v)
		}
	}
}
