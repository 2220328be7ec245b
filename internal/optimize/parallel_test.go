package optimize

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 23
		hits := make([]int32, n)
		err := ForEach(workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := ForEach(4, 10, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want the error a sequential loop would surface first (%v)", err, errLow)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
