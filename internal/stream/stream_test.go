package stream

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAvgWindowBasics(t *testing.T) {
	w := NewAvgWindow(3, 2)
	if w.Full() {
		t.Fatal("empty window reports full")
	}
	w.Push([]float64{1, 2})
	v := w.Vector()
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("one-sample average = %v", v)
	}
	w.Push([]float64{3, 4})
	w.Push([]float64{5, 6})
	if !w.Full() {
		t.Fatal("window should be full after 3 pushes")
	}
	v = w.Vector()
	if v[0] != 3 || v[1] != 4 {
		t.Fatalf("average = %v, want [3 4]", v)
	}
	// Eviction: pushing a 4th sample drops the first.
	w.Push([]float64{7, 8})
	v = w.Vector()
	if v[0] != 5 || v[1] != 6 {
		t.Fatalf("post-eviction average = %v, want [5 6]", v)
	}
}

func TestAvgWindowMatchesNaiveAverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewAvgWindow(5, 1)
		var hist []float64
		for k := 0; k < 50; k++ {
			x := rng.NormFloat64()
			hist = append(hist, x)
			w.Push([]float64{x})
			lo := len(hist) - 5
			if lo < 0 {
				lo = 0
			}
			var want float64
			for _, v := range hist[lo:] {
				want += v
			}
			want /= float64(len(hist) - lo)
			if math.Abs(w.Vector()[0]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistWindow(t *testing.T) {
	h := NewHistWindow(4, 2, 0, 10) // buckets [0,5) and [5,10]
	h.Push([]float64{1, 9})
	h.Push([]float64{2, 8})
	h.Push([]float64{7, 1})
	h.Push([]float64{8, 2})
	if !h.Full() {
		t.Fatal("window should be full")
	}
	v := h.Vector()
	// p (attr 0): 2 low, 2 high → [0.5, 0.5]; q (attr 1): 2 high, 2 low.
	want := []float64{0.5, 0.5, 0.5, 0.5}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("hist vector = %v, want %v", v, want)
		}
	}
	// Eviction drops the oldest (1, 9).
	h.Push([]float64{1, 1})
	v = h.Vector()
	if math.Abs(v[0]-0.5) > 1e-12 || math.Abs(v[2]-0.75) > 1e-12 {
		t.Fatalf("post-eviction hist = %v", v)
	}
	// Histogram entries always sum to 1 per attribute.
	if s := v[0] + v[1]; math.Abs(s-1) > 1e-12 {
		t.Fatalf("p histogram sums to %v", s)
	}
	if s := v[2] + v[3]; math.Abs(s-1) > 1e-12 {
		t.Fatalf("q histogram sums to %v", s)
	}
}

func TestHistWindowClampsOutOfRange(t *testing.T) {
	h := NewHistWindow(2, 4, 0, 100)
	h.Push([]float64{-50, 700})
	v := h.Vector()
	if v[0] != 1 { // below-range lands in the first bucket
		t.Fatalf("clamped low sample histogram = %v", v)
	}
	if v[4+3] != 1 { // above-range lands in the last bucket
		t.Fatalf("clamped high sample histogram = %v", v)
	}
}

func TestDatasetsAreDeterministic(t *testing.T) {
	a := MLPDrift(4, 6, 50, 9)
	b := MLPDrift(4, 6, 50, 9)
	for r := 0; r < 50; r++ {
		for i := 0; i < 6; i++ {
			va, vb := a.Sample(r, i), b.Sample(r, i)
			for j := range va {
				if va[j] != vb[j] {
					t.Fatal("MLPDrift not deterministic")
				}
			}
		}
	}
}

func TestDatasetShapes(t *testing.T) {
	cases := []struct {
		name   string
		ds     *Dataset
		nodes  int
		rounds int
		dim    int
	}{
		{"mlp", MLPDrift(10, 8, 30, 1), 8, 30, 10},
		{"ip", InnerProductPhases(5, 4, 30, 1), 4, 30, 10},
		{"quad", QuadraticOutlier(6, 4, 30, 1), 4, 30, 6},
		{"gauss", GaussianNoise(2, 4, 30, 0, 0.2, 1), 4, 30, 2},
	}
	for _, c := range cases {
		if c.ds.Nodes != c.nodes || c.ds.Rounds != c.rounds {
			t.Fatalf("%s: shape %d×%d", c.name, c.ds.Nodes, c.ds.Rounds)
		}
		if len(c.ds.fill) == 0 {
			t.Fatalf("%s: no warm-up rounds", c.name)
		}
		for r := 0; r < c.rounds; r++ {
			for i := 0; i < c.nodes; i++ {
				s := c.ds.Sample(r, i)
				if s == nil || len(s) != c.dim {
					t.Fatalf("%s: sample (%d,%d) has dim %d, want %d", c.name, r, i, len(s), c.dim)
				}
			}
		}
		// Windows must fill after the warm-up pushes.
		w := c.ds.FilledWindow(0)
		if !w.Full() {
			t.Fatalf("%s: window not full after warm-up", c.name)
		}
	}
}

func TestIntrusionSingleNodePerRound(t *testing.T) {
	in := NewIntrusion(9, 500, 3)
	attackRounds := 0
	for r := 0; r < in.Rounds; r++ {
		active := 0
		for i := 0; i < in.Nodes; i++ {
			if in.Sample(r, i) != nil {
				active++
				if len(in.Sample(r, i)) != IntrusionFeatures {
					t.Fatalf("feature count = %d", len(in.Sample(r, i)))
				}
			}
		}
		if active != 1 {
			t.Fatalf("round %d has %d active nodes, want 1", r, active)
		}
	}
	_ = attackRounds
	if len(in.TrainX) == 0 || len(in.TrainX) != len(in.TrainY) {
		t.Fatal("training set malformed")
	}
	// Both classes present.
	var pos int
	for _, y := range in.TrainY {
		if y == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(in.TrainY) {
		t.Fatal("training set is single-class")
	}
}

func TestAirQualityRangesAndDrift(t *testing.T) {
	ds := NewAirQuality(12, 10, 400, 5)
	if ds.Nodes != 12 {
		t.Fatalf("sites = %d", ds.Nodes)
	}
	for r := 0; r < ds.Rounds; r++ {
		for i := 0; i < ds.Nodes; i++ {
			s := ds.Sample(r, i)
			if len(s) != 2 {
				t.Fatalf("air sample has %d attrs", len(s))
			}
			for _, v := range s {
				if v < 0 || v > 500 {
					t.Fatalf("PM value %v out of [0, 500]", v)
				}
			}
		}
	}
	// The windowed histograms must produce valid probability vectors.
	w := ds.FilledWindow(0)
	if !w.Full() {
		t.Fatal("hist window not full after warm-up")
	}
	v := w.Vector()
	var sp, sq float64
	for i := 0; i < 10; i++ {
		sp += v[i]
		sq += v[10+i]
	}
	if math.Abs(sp-1) > 1e-9 || math.Abs(sq-1) > 1e-9 {
		t.Fatalf("histograms not normalized: %v, %v", sp, sq)
	}
}

func TestSlice(t *testing.T) {
	ds := GaussianNoise(2, 3, 100, 0, 1, 2)
	head := ds.Slice(0, 20)
	tail := ds.Slice(20, 100)
	if head.Rounds != 20 || tail.Rounds != 80 {
		t.Fatalf("slice rounds = %d, %d", head.Rounds, tail.Rounds)
	}
	if len(head.fill) != len(ds.fill) {
		t.Fatal("slices must keep the warm-up prefix")
	}
	if tail.Sample(0, 0)[0] != ds.Sample(20, 0)[0] {
		t.Fatal("tail slice misaligned")
	}
}
