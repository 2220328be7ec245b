package linalg

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randSym returns a random symmetric d×d matrix with entries ~N(0, scale²).
func randSym(rng *rand.Rand, d int, scale float64) *Mat {
	m := NewMat(d, d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := rng.NormFloat64() * scale
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// reconstruct builds QΛQᵀ from an eigendecomposition.
func reconstruct(values []float64, q *Mat) *Mat {
	n := len(values)
	out := NewMat(n, n)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += values[k] * q.At(i, k) * q.At(j, k)
			}
		}
	}
	return out
}

func TestEigenSymDiagonal(t *testing.T) {
	m := NewMat(3, 3)
	m.Set(0, 0, 3)
	m.Set(1, 1, -1)
	m.Set(2, 2, 2)
	v, _, err := EigenSym(m, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i := range want {
		if !almostEq(v[i], want[i], 1e-12) {
			t.Fatalf("eigenvalues = %v, want %v", v, want)
		}
	}
}

func TestEigenSym2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := NewMat(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	v, q, err := EigenSym(m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v[0], 1, 1e-12) || !almostEq(v[1], 3, 1e-12) {
		t.Fatalf("eigenvalues = %v", v)
	}
	if !Equalish(reconstruct(v, q), m, 1e-10) {
		t.Fatal("QΛQᵀ does not reconstruct the matrix")
	}
}

func TestEigenSymReconstructsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 5, 10, 30} {
		for trial := 0; trial < 5; trial++ {
			m := randSym(rng, d, 2)
			v, q, err := EigenSym(m, true)
			if err != nil {
				t.Fatalf("d=%d: %v", d, err)
			}
			if !Equalish(reconstruct(v, q), m, 1e-8) {
				t.Fatalf("d=%d trial %d: reconstruction failed", d, trial)
			}
			for i := 1; i < d; i++ {
				if v[i] < v[i-1] {
					t.Fatalf("eigenvalues not ascending: %v", v)
				}
			}
		}
	}
}

func TestEigenSymOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randSym(rng, 12, 1)
	_, q, err := EigenSym(m, true)
	if err != nil {
		t.Fatal(err)
	}
	n := 12
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += q.At(i, a) * q.At(i, b)
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if !almostEq(dot, want, 1e-9) {
				t.Fatalf("columns %d,%d not orthonormal: dot=%v", a, b, dot)
			}
		}
	}
}

// JacobiEigenSym is an independent cyclic-Jacobi symmetric eigensolver that
// cross-checks EigenSym. It returns eigenvalues ascending and
// eigenvectors as columns.
func JacobiEigenSym(a *Mat) (values []float64, vecs *Mat, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: JacobiEigenSym requires a square matrix")
	}
	n := a.Rows
	m := a.Clone()
	v := NewMat(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-24*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				theta := (m.At(q, q) - m.At(p, p)) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp := m.At(k, p)
					akq := m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := m.At(p, k)
					aqk := m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = m.At(i, i)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] < values[idx[j]] })
	sorted := make([]float64, n)
	vecs = NewMat(n, n)
	for k, p := range idx {
		sorted[k] = values[p]
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, p))
		}
	}
	return sorted, vecs, nil
}

func TestEigenSymAgreesWithJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(15)
		m := randSym(rng, d, 3)
		v1, err := EigenvaluesSym(m)
		if err != nil {
			t.Fatal(err)
		}
		v2, _, err := JacobiEigenSym(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v1 {
			if !almostEq(v1[i], v2[i], 1e-8) {
				t.Fatalf("d=%d: QL %v vs Jacobi %v", d, v1, v2)
			}
		}
	}
}

func TestEigenSymTraceAndDeterminantInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(8)
		m := randSym(rng, d, 1)
		v, err := EigenvaluesSym(m)
		if err != nil {
			t.Fatal(err)
		}
		var trace, sumv float64
		for i := 0; i < d; i++ {
			trace += m.At(i, i)
			sumv += v[i]
		}
		if !almostEq(trace, sumv, 1e-9) {
			t.Fatalf("trace %v != eigenvalue sum %v", trace, sumv)
		}
	}
}

// TestEigenvaluesIgnoreWantVectors: skipping tred2's accumulation changes no
// eigenvalue bit, because the accumulation never writes a diagonal entry
// before reading it.
func TestEigenvaluesIgnoreWantVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range []int{1, 2, 3, 17, 100} {
		for trial := 0; trial < 4; trial++ {
			m := randSym(rng, d, 2)
			with, without := m.Clone(), m.Clone()
			vw, vo := make([]float64, d), make([]float64, d)
			if err := EigenSymInPlace(with, vw, make([]float64, d), true); err != nil {
				t.Fatal(err)
			}
			if err := EigenSymInPlace(without, vo, make([]float64, d), false); err != nil {
				t.Fatal(err)
			}
			for i := range vw {
				if math.Float64bits(vw[i]) != math.Float64bits(vo[i]) {
					t.Fatalf("d=%d trial %d: eigenvalue %d is %v with vectors, %v without", d, trial, i, vw[i], vo[i])
				}
			}
		}
	}
}

// ExtremeEigenvalues returns the smallest and largest eigenvalue of
// symmetric a.
func ExtremeEigenvalues(a *Mat) (min, max float64, err error) {
	v, err := EigenvaluesSym(a)
	if err != nil {
		return 0, 0, err
	}
	return v[0], v[len(v)-1], nil
}

// QuadForm returns vᵀ·m·v for a square matrix m.
func (m *Mat) QuadForm(v []float64) float64 {
	if m.Rows != m.Cols || len(v) != m.Rows {
		panic("linalg: QuadForm needs square matrix matching v")
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += v[i] * Dot(m.Row(i), v)
	}
	return s
}

func TestExtremeEigenvalues(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 0, -4)
	m.Set(1, 1, 7)
	lo, hi, err := ExtremeEigenvalues(m)
	if err != nil {
		t.Fatal(err)
	}
	if lo != -4 || hi != 7 {
		t.Fatalf("extremes = %v, %v", lo, hi)
	}
}

func TestEigenSymRejectsNonSquare(t *testing.T) {
	if _, _, err := EigenSym(NewMat(2, 3), false); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestEigenSymEmpty(t *testing.T) {
	v, _, err := EigenSym(NewMat(0, 0), true)
	if err != nil || len(v) != 0 {
		t.Fatalf("empty matrix: v=%v err=%v", v, err)
	}
}

// denseOf rebuilds the matrix Σⱼ λⱼ·vⱼvⱼᵀ a factor stands for.
func denseOf(f *EigFactor) *Mat {
	d := f.V.Cols
	m := NewMat(d, d)
	for j, lam := range f.Lam {
		v := f.V.Row(j)
		for r := 0; r < d; r++ {
			for c := 0; c < d; c++ {
				m.Data[r*d+c] += lam * v[r] * v[c]
			}
		}
	}
	return m
}

// plantedSym builds Q·diag(lams)·Qᵀ for a random orthogonal Q, so the rank
// and inertia of the result are known in advance.
func plantedSym(t *testing.T, rng *rand.Rand, lams []float64) *Mat {
	t.Helper()
	_, q, err := EigenSym(randSym(rng, len(lams), 1), true)
	if err != nil {
		t.Fatal(err)
	}
	return denseOf(&EigFactor{Lam: lams, V: transpose(q)})
}

func transpose(m *Mat) *Mat {
	tr := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			tr.Set(j, i, m.At(i, j))
		}
	}
	return tr
}

func TestSplitEig(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		d := 1 + rng.Intn(10)
		m := randSym(rng, d, 2)
		values, vecs, err := EigenSym(m, true)
		if err != nil {
			t.Fatal(err)
		}
		minus, plus := SplitEig(values, vecs)
		if err := minus.Check(d); err != nil {
			t.Fatal(err)
		}
		if err := plus.Check(d); err != nil {
			t.Fatal(err)
		}
		// minus + plus == m
		sum := denseOf(minus)
		for i, v := range denseOf(plus).Data {
			sum.Data[i] += v
		}
		if !Equalish(sum, m, 1e-8) {
			t.Fatal("H- + H+ != H")
		}
		// plus keeps exactly the positive eigenvalues, minus the negative.
		for _, lam := range plus.Lam {
			if lam <= 0 {
				t.Fatalf("H+ keeps eigenvalue %v", lam)
			}
		}
		for _, lam := range minus.Lam {
			if lam >= 0 {
				t.Fatalf("H- keeps eigenvalue %v", lam)
			}
		}
		if len(minus.Lam)+len(plus.Lam) != d {
			t.Fatalf("ranks %d + %d != %d for a generic matrix", len(minus.Lam), len(plus.Lam), d)
		}
	}
}

// TestEigFactorMatchesDense is the property the ADCD-E check rests on: for
// matrices of planted rank and inertia, the factored quadratic form of each
// part agrees with the dense form of that part within a roundoff bound
// c·d·ε·‖H‖₂·‖v‖², the ranks are the planted ones, and the spectral norm is
// the largest planted magnitude.
func TestEigFactorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const eps = 2.220446049250313e-16
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(24)
		lams := make([]float64, d)
		neg := rng.Intn(d + 1)
		pos := rng.Intn(d - neg + 1)
		for j := 0; j < neg; j++ {
			lams[j] = -(0.1 + 3*rng.Float64())
		}
		for j := neg; j < neg+pos; j++ {
			lams[j] = 0.1 + 3*rng.Float64()
		}
		m := plantedSym(t, rng, lams)
		m.Symmetrize()
		values, vecs, err := EigenSym(m, true)
		if err != nil {
			t.Fatal(err)
		}
		// Planted zeros come back as ±O(d·ε·‖H‖₂): clip them, as any caller
		// that wants an exact rank must.
		for j, lam := range values {
			if math.Abs(lam) < 1e-10 {
				values[j] = 0
			}
		}
		minus, plus := SplitEig(values, vecs)
		if len(minus.Lam) != neg || len(plus.Lam) != pos {
			t.Fatalf("d=%d: ranks (%d, %d), planted (%d, %d)", d, len(minus.Lam), len(plus.Lam), neg, pos)
		}
		norm := math.Max(minus.Norm2(), plus.Norm2())
		var want float64
		for _, lam := range lams {
			want = math.Max(want, math.Abs(lam))
		}
		if math.Abs(norm-want) > 1e-10*(1+want) {
			t.Fatalf("d=%d: Norm2 %v, planted %v", d, norm, want)
		}
		for _, part := range []*EigFactor{minus, plus} {
			dense := denseOf(part)
			for probe := 0; probe < 8; probe++ {
				v := make([]float64, d)
				for i := range v {
					v[i] = rng.NormFloat64() * 5
				}
				got, ref := part.QuadForm(v), dense.QuadForm(v)
				if tol := 16 * float64(d) * eps * norm * Dot(v, v); math.Abs(got-ref) > tol {
					t.Fatalf("d=%d rank=%d: factored %v vs dense %v (tol %v)", d, len(part.Lam), got, ref, tol)
				}
			}
		}
	}
}

func TestEigFactorCheck(t *testing.T) {
	good := func() *EigFactor {
		return &EigFactor{Lam: []float64{-1, 2}, V: &Mat{Rows: 2, Cols: 3, Data: []float64{1, 0, 0, 0, 1, 0}}}
	}
	if err := good().Check(3); err != nil {
		t.Fatal(err)
	}
	if err := (&EigFactor{V: &Mat{Cols: 3}}).Check(3); err != nil {
		t.Fatalf("rank 0: %v", err)
	}
	bad := map[string]func(*EigFactor){
		"dimension":        func(f *EigFactor) { f.V.Cols = 2; f.V.Data = f.V.Data[:4] },
		"rank > d":         func(f *EigFactor) { f.Lam = make([]float64, 4); f.V = NewMat(4, 3) },
		"len(Lam) != rows": func(f *EigFactor) { f.Lam = f.Lam[:1] },
		"short data":       func(f *EigFactor) { f.V.Data = f.V.Data[:5] },
		"nil V":            func(f *EigFactor) { f.V = nil },
		"NaN eigenvalue":   func(f *EigFactor) { f.Lam[0] = math.NaN() },
		"Inf entry":        func(f *EigFactor) { f.V.Data[3] = math.Inf(1) },
	}
	for name, breakIt := range bad {
		f := good()
		breakIt(f)
		if f.Check(3) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMatQuadForm(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 3)
	// [1 1]·M·[1 1]ᵀ = 1+2+2+3 = 8
	if got := m.QuadForm([]float64{1, 1}); got != 8 {
		t.Fatalf("QuadForm = %v", got)
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewMat(2, 2)
	m.Set(0, 1, 2)
	m.Set(1, 0, 4)
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize = %v", m.Data)
	}
}

func TestEigenLargeWellConditioned(t *testing.T) {
	// Construct a matrix with known spectrum: Q diag(1..d) Qᵀ from a random
	// orthogonal Q (obtained by eigendecomposing a random symmetric matrix).
	rng := rand.New(rand.NewSource(3))
	d := 60
	_, q, err := EigenSym(randSym(rng, d, 1), true)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, d)
	for i := range want {
		want[i] = float64(i + 1)
	}
	m := reconstruct(want, q)
	m.Symmetrize()
	got, err := EigenvaluesSym(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("eig[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
