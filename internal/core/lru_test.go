package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// sliceLRU is the LRU balancing order as it was kept before the linked
// order: a []int, least recently balanced first, whose pick filters the
// balancing set and whose touch finds the node and shifts the rest down. It
// is the reference the Machine must match pick for pick.
type sliceLRU []int

func newSliceLRU(n int) sliceLRU {
	l := make(sliceLRU, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// pick returns the least-recently-used live node not already in set, or -1.
func (l sliceLRU) pick(live []bool, set []int) int {
	for _, id := range l {
		if live[id] && !slices.Contains(set, id) {
			return id
		}
	}
	return -1
}

// touch marks a node as most recently used.
func (l sliceLRU) touch(id int) {
	i := slices.Index(l, id)
	copy(l[i:], l[i+1:])
	l[len(l)-1] = id
}

// lruOrder walks the machine's linked order from the head, failing on a
// broken link or a cycle that skips the sentinel.
func lruOrder(t *testing.T, m *Machine) []int {
	t.Helper()
	var order []int
	for id := m.next[m.N]; int(id) != m.N; id = m.next[id] {
		if len(order) > m.N || m.next[m.prev[id]] != id {
			t.Fatalf("LRU links broken at node %d after %v", id, order)
		}
		order = append(order, int(id))
	}
	return order
}

func TestLRUOrdering(t *testing.T) {
	f := saddleFunc()
	c := NewCoordinator(f, 4, Config{Epsilon: 0.1}, &Fabric{})
	c.touchLRU(0)
	if got := lruOrder(t, c.Machine); !reflect.DeepEqual(got, []int{1, 2, 3, 0}) {
		t.Fatalf("order after touching 0 = %v, want [1 2 3 0]", got)
	}
	if got := c.pickLRU(); got != 1 {
		t.Fatalf("pickLRU = %d, want 1", got)
	}
	// A dead node keeps its place but is never picked.
	c.MarkDead(1)
	if got := c.pickLRU(); got != 2 {
		t.Fatalf("pickLRU with 1 dead = %d, want 2", got)
	}
	c.touchLRU(2) // 1,3,0,2
	c.touchLRU(0) // 1,3,2,0
	if got := lruOrder(t, c.Machine); !reflect.DeepEqual(got, []int{1, 3, 2, 0}) {
		t.Fatalf("order = %v, want [1 3 2 0]", got)
	}
	if got := c.pickLRU(); got != 3 {
		t.Fatalf("pickLRU = %d, want 3", got)
	}
	for _, id := range []int{0, 2, 3} {
		c.MarkDead(id)
	}
	if got := c.pickLRU(); got != -1 {
		t.Fatalf("pickLRU with every node dead = %d, want -1", got)
	}
}

// TestQuickLRUPermutationInvariant: touching ids in any order keeps the
// linked order a permutation of all node ids, in the order the slice
// reference produces.
func TestQuickLRUPermutationInvariant(t *testing.T) {
	f := saddleFunc()
	check := func(touches []uint8) bool {
		c := NewCoordinator(f, 6, Config{Epsilon: 0.1}, &Fabric{})
		ref := newSliceLRU(6)
		for _, id := range touches {
			c.touchLRU(int(id) % 6)
			ref.touch(int(id) % 6)
		}
		return reflect.DeepEqual(lruOrder(t, c.Machine), []int(ref))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLRUMatchesSliceReference replays protocol-shaped sequences through the
// machine's linked order and the slice reference: each lazy attempt touches
// a live violator, then makes up to ⌊live/2⌋ pick-and-touch steps, and nodes
// die and revive between attempts. The machine's set-free pick must name the
// reference's set-filtered pick every time.
func TestLRUMatchesSliceReference(t *testing.T) {
	f := saddleFunc()
	check := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%48
		c := NewCoordinator(f, n, Config{Epsilon: 0.1}, &Fabric{})
		ref := newSliceLRU(n)
		for attempt := 0; attempt < 40; attempt++ {
			for k := rng.Intn(4); k > 0; k-- {
				if id := rng.Intn(n); rng.Intn(2) == 0 {
					c.MarkDead(id)
				} else {
					c.MarkLive(id)
				}
			}
			if c.LiveCount() == 0 {
				continue
			}
			violator := rng.Intn(n)
			for !c.Live(violator) {
				violator = rng.Intn(n)
			}
			set := []int{violator}
			c.touchLRU(violator)
			ref.touch(violator)
			for steps := rng.Intn(c.LiveCount()/2 + 1); steps > 0; steps-- {
				got, want := c.pickLRU(), ref.pick(c.live, set)
				if got != want {
					t.Logf("attempt %d, set %v: pickLRU = %d, reference %d", attempt, set, got, want)
					return false
				}
				set = append(set, got)
				c.touchLRU(got)
				ref.touch(got)
			}
		}
		return reflect.DeepEqual(lruOrder(t, c.Machine), []int(ref))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
