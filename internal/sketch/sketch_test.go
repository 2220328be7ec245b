package sketch

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestAMSLinearity(t *testing.T) {
	// The defining property behind §5's composition: the average of node
	// sketches equals the sketch of the averaged update stream.
	a, err := NewAMS(4, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewAMS(4, 32, 9)
	merged, _ := NewAMS(4, 32, 9)

	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 500; k++ {
		item := uint64(rng.Intn(200))
		delta := rng.NormFloat64()
		if k%2 == 0 {
			a.Add(item, delta)
		} else {
			b.Add(item, delta)
		}
		merged.Add(item, delta/2) // contribution to the average of 2 nodes
	}
	va, vb, vm := a.Vector(), b.Vector(), merged.Vector()
	for i := range vm {
		avg := (va[i] + vb[i]) / 2
		if math.Abs(avg-vm[i]) > 1e-9 {
			t.Fatalf("linearity broken at counter %d: %v vs %v", i, avg, vm[i])
		}
	}
}

func TestAMSF2Accuracy(t *testing.T) {
	// F2 estimate within ~1/√rows relative error of the exact second moment
	// for a skewed stream.
	a, err := NewAMS(12, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	freq := map[uint64]float64{}
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 5000; k++ {
		item := uint64(rng.Intn(100))
		if rng.Float64() < 0.3 {
			item = uint64(rng.Intn(5)) // heavy hitters
		}
		a.Add(item, 1)
		freq[item]++
	}
	var exact float64
	for _, f := range freq {
		exact += f * f
	}
	got := a.F2()
	if rel := math.Abs(got-exact) / exact; rel > 0.35 {
		t.Fatalf("F2 = %v, exact %v, rel err %v", got, exact, rel)
	}
}

func TestAMSDeletionsCancel(t *testing.T) {
	a, _ := NewAMS(3, 16, 5)
	a.Add(42, 7)
	a.Add(42, -7)
	for _, v := range a.Vector() {
		if v != 0 {
			t.Fatalf("turnstile deletions must cancel exactly, counter = %v", v)
		}
	}
	if a.F2() != 0 {
		t.Fatalf("F2 after cancellation = %v", a.F2())
	}
}

func TestAMSDeterministicAcrossInstances(t *testing.T) {
	a, _ := NewAMS(4, 32, 11)
	b, _ := NewAMS(4, 32, 11)
	a.Add(123, 1.5)
	b.Add(123, 1.5)
	for i := range a.Vector() {
		if a.Vector()[i] != b.Vector()[i] {
			t.Fatal("equal seeds must give identical sketches")
		}
	}
	c, _ := NewAMS(4, 32, 12)
	c.Add(123, 1.5)
	same := true
	for i := range a.Vector() {
		if a.Vector()[i] != c.Vector()[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should hash differently")
	}
}

func TestBadShapesRejected(t *testing.T) {
	if _, err := NewAMS(0, 4, 1); err == nil {
		t.Fatal("AMS with zero rows accepted")
	}
	if _, err := NewAMS(4, 0, 1); err == nil {
		t.Fatal("AMS with zero cols accepted")
	}
}

func TestRowSeedBitIdentical(t *testing.T) {
	// The precomputed per-row seeds must reproduce the original double-hash
	// bucket/sign assignment exactly — sketches written by older builds stay
	// mergeable with sketches written by this one.
	a, _ := NewAMS(6, 48, 0xfeed)
	for row := 0; row < a.Rows; row++ {
		for item := uint64(0); item < 500; item++ {
			v := mix64(item ^ mix64(uint64(row)+a.seed))
			wantCol := int(v % uint64(a.Cols))
			wantSign := -1.0
			if (v>>32)&1 == 1 {
				wantSign = 1.0
			}
			col, sign := a.cell(row, item)
			if col != wantCol || sign != wantSign {
				t.Fatalf("row %d item %d: cell (%d, %v), reference (%d, %v)", row, item, col, sign, wantCol, wantSign)
			}
		}
	}
}

// TestMergeMismatchRejected: sketches that disagree on shape or seed are
// reported with the typed *MismatchError, which ingest relies on to refuse a
// group whose sketches cannot average.
func TestMergeMismatchRejected(t *testing.T) {
	base, _ := NewAMS(4, 32, 7)
	same, _ := NewAMS(4, 32, 7)
	if err := base.Compatible(same); err != nil {
		t.Fatalf("equal shape and seed rejected: %v", err)
	}
	shape, _ := NewAMS(4, 64, 7)
	rows, _ := NewAMS(8, 32, 7)
	seed, _ := NewAMS(4, 32, 8)
	for _, other := range []*AMS{shape, rows, seed} {
		err := base.Compatible(other)
		var mm *MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("%dx%d seed %d against %dx%d seed %d: error %v, want *MismatchError",
				other.Rows, other.Cols, other.seed, base.Rows, base.Cols, base.seed, err)
		}
		if mm.RowsA != 4 || mm.ColsA != 32 || mm.SeedA != 7 ||
			mm.RowsB != other.Rows || mm.ColsB != other.Cols || mm.SeedB != other.seed {
			t.Fatalf("mismatch error fields: %+v", mm)
		}
		if !strings.Contains(mm.Error(), "incompatible") {
			t.Fatalf("error text: %q", mm.Error())
		}
	}
}
