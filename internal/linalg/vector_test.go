package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
	// Scaled accumulation must not overflow.
	big := []float64{1e200, 1e200}
	if got, want := Norm2(big), 1e200*math.Sqrt2; !almostEq(got, want, 1e-12) {
		t.Fatalf("Norm2 overflow-safe = %v, want %v", got, want)
	}
}

func TestNorm2MatchesDot(t *testing.T) {
	f := func(v []float64) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		n := Norm2(v)
		return almostEq(n*n, Dot(v, v), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	dst := make([]float64, 3)
	Add(dst, a, b)
	if dst[0] != 5 || dst[2] != 9 {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, b, a)
	if dst[0] != 3 || dst[2] != 3 {
		t.Fatalf("Sub = %v", dst)
	}
	Scale(dst, 2, a)
	if dst[1] != 4 {
		t.Fatalf("Scale = %v", dst)
	}
	AXPY(dst, 2, a, b)
	if dst[0] != 6 || dst[2] != 12 {
		t.Fatalf("AXPY = %v", dst)
	}
	// Aliasing: dst == a must be allowed.
	Add(a, a, b)
	if a[0] != 5 {
		t.Fatalf("aliased Add = %v", a)
	}
}

func TestMean(t *testing.T) {
	dst := make([]float64, 2)
	Mean(dst, []float64{0, 2}, []float64{2, 4}, []float64{4, 6})
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("Mean = %v", dst)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mean(make([]float64, 1))
}

func TestClampInBox(t *testing.T) {
	lo := []float64{-1, -1}
	hi := []float64{1, 1}
	dst := make([]float64, 2)
	Clamp(dst, []float64{-2, 0.5}, lo, hi)
	if dst[0] != -1 || dst[1] != 0.5 {
		t.Fatalf("Clamp = %v", dst)
	}
	if !InBox(dst, lo, hi) {
		t.Fatal("clamped point must be in box")
	}
	if InBox([]float64{2, 0}, lo, hi) {
		t.Fatal("point outside box reported inside")
	}
}

func TestClampAlwaysInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(8)
		lo := make([]float64, d)
		hi := make([]float64, d)
		v := make([]float64, d)
		dst := make([]float64, d)
		for i := 0; i < d; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			lo[i] = math.Min(a, b)
			hi[i] = math.Max(a, b)
			v[i] = rng.NormFloat64() * 3
		}
		Clamp(dst, v, lo, hi)
		if !InBox(dst, lo, hi) {
			t.Fatalf("Clamp(%v) = %v escaped box [%v, %v]", v, dst, lo, hi)
		}
	}
}

func TestSqDistAndMaxAbsDiff(t *testing.T) {
	a := []float64{0, 3}
	b := []float64{4, 0}
	if got := SqDist(a, b); got != 25 {
		t.Fatalf("SqDist = %v", got)
	}
	if got := MaxAbsDiff(a, b); got != 4 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
}

func TestClone(t *testing.T) {
	a := []float64{1, 2}
	c := Clone(a)
	c[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

// TestCopyShiftSqDist checks the fused kernel at lengths on both sides of its
// four-lane stride: dst holds src afterwards, the distance is that of the
// point Add builds within 1e-13 relative of a plain ordered sum, and a NaN
// anywhere reaches the result.
func TestCopyShiftSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 5, 255, 256, 257} {
		src, shift, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
			shift[i] = 0.1 * rng.NormFloat64()
			c[i] = src[i] + shift[i] + 1e-3*rng.NormFloat64()
		}
		dst := make([]float64, n)
		got := CopyShiftSqDist(dst, src, shift, c)
		for i := range src {
			if math.Float64bits(dst[i]) != math.Float64bits(src[i]) {
				t.Fatalf("n=%d: dst[%d] = %v, want src's %v", n, i, dst[i], src[i])
			}
		}
		v := Add(make([]float64, n), src, shift)
		var want float64
		for i := range v {
			d := v[i] - c[i]
			want += d * d
		}
		if math.Abs(got-want) > 1e-13*want {
			t.Errorf("n=%d: CopyShiftSqDist = %v, ordered sum %v", n, got, want)
		}
		for _, in := range [][]float64{src, shift, c} {
			if n == 0 {
				break
			}
			k := rng.Intn(n)
			old := in[k]
			in[k] = math.NaN()
			if got := CopyShiftSqDist(dst, src, shift, c); !math.IsNaN(got) {
				t.Errorf("n=%d: a NaN at %d gives %v, want NaN", n, k, got)
			}
			in[k] = old
		}
	}
}

// BenchmarkCopyShiftSqDist times the fused copy and distance at d = 256, the
// width of the F₂ sketch the elided node step measures on every event.
func BenchmarkCopyShiftSqDist(b *testing.B) {
	const d = 256
	rng := rand.New(rand.NewSource(1))
	src, shift, c, dst := make([]float64, d), make([]float64, d), make([]float64, d), make([]float64, d)
	for i := range src {
		src[i], shift[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += CopyShiftSqDist(dst, src, shift, c)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN distance")
	}
}
