package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"automon/internal/linalg"
)

// boundedVec generates reproducible random vectors with sane magnitudes for
// property-based tests.
type boundedVec []float64

// Generate implements quick.Generator.
func (boundedVec) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(16)
	v := make(boundedVec, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return reflect.ValueOf(v)
}

// TestQuickViolationCodecRoundTrip property-checks the wire codec on random
// payloads.
func TestQuickViolationCodecRoundTrip(t *testing.T) {
	f := func(node uint16, kind uint8, x boundedVec) bool {
		m := &Violation{
			NodeID: int(node),
			Kind:   ViolationKind(kind%3 + 1),
			X:      []float64(x),
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSyncCodecRoundTrip property-checks the richest message type.
func TestQuickSyncCodecRoundTrip(t *testing.T) {
	f := func(node uint16, f0, l, u, lam, r float64, x0, grad, slack boundedVec) bool {
		if math.IsNaN(f0) || math.IsInf(f0, 0) {
			return true
		}
		m := &Sync{
			NodeID: int(node), Method: MethodX, Kind: ConcaveDiff,
			X0: x0, F0: f0, GradF0: grad, L: l, U: u, Lam: lam, R: r, Slack: slack,
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickThresholdsOrdered: L ≤ U must hold for every f0 and ε under both
// error types, including negative and zero reference values.
func TestQuickThresholdsOrdered(t *testing.T) {
	f := saddleFunc()
	add := NewCoordinator(f, 2, Config{Epsilon: 0.25}, &Fabric{})
	mul := NewCoordinator(f, 2, Config{Epsilon: 0.25, ErrorType: Multiplicative}, &Fabric{})
	check := func(f0 float64) bool {
		if math.IsNaN(f0) || math.IsInf(f0, 0) {
			return true
		}
		l1, u1 := add.Thresholds(f0)
		l2, u2 := mul.Thresholds(f0)
		return l1 <= f0 && f0 <= u1 && l2 <= f0 && f0 <= u2
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNeighborhoodBoxContainsReference: x0 (clamped into the domain)
// is always inside B, and B is always inside the domain.
func TestQuickNeighborhoodBoxContainsReference(t *testing.T) {
	f := sineFunc() // domain [0, π]
	check := func(x0raw, rraw float64) bool {
		if math.IsNaN(x0raw) || math.IsInf(x0raw, 0) || math.IsNaN(rraw) {
			return true
		}
		r := math.Abs(math.Mod(rraw, 3)) + 1e-6
		x0 := math.Min(math.Max(math.Mod(x0raw, math.Pi), 0), math.Pi)
		lo, hi := NeighborhoodBox(f, []float64{x0}, r)
		if lo[0] < 0 || hi[0] > math.Pi {
			return false
		}
		return lo[0] <= x0+1e-12 && x0 <= hi[0]+1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSafeZoneADCDESound: for random constant-Hessian quadratics,
// random safe-zone members are always admissible — the paper's central
// correctness property, as a quick.Check over decompositions.
func TestQuickSafeZoneADCDESound(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		q := linalg.NewMat(d, d)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				v := rng.NormFloat64()
				q.Set(i, j, v)
				q.Set(j, i, v)
			}
		}
		f := quadraticFunc(q)
		x0 := make([]float64, d)
		for i := range x0 {
			x0[i] = rng.NormFloat64() * 0.3
		}
		dec, err := DecomposeE(f, x0)
		if err != nil {
			return false
		}
		f0 := f.Value(x0)
		zone := BuildZoneE(f, dec, x0, f0-0.5, f0+0.5)
		for trial := 0; trial < 200; trial++ {
			v := make([]float64, d)
			for i := range v {
				v[i] = x0[i] + rng.NormFloat64()*0.5
			}
			if zone.Contains(f, v) && !zone.InAdmissibleRegion(f, v) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
