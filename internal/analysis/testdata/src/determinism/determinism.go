// Package core exercises the determinism analyzer inside one deterministic
// package. The fixture is loaded under the import path fixture/internal/core,
// which makes every function here a root of the contract.
package core

import (
	"math/rand"
	"sort"
	"time"
)

// LeakOrder appends map values in iteration order: the order leaks into the
// result.
func LeakOrder(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "order-sensitive map iteration is reachable from the deterministic packages \(core.LeakOrder\)"
		out = append(out, v)
	}
	return out
}

// SortedKeys uses the collect-then-sort idiom; the first range is
// order-insensitive and must not be flagged.
func SortedKeys(m map[string]int) []int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// KeyedCopy re-keys one map into another: commutative, no finding.
func KeyedCopy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v + 1
	}
	return out
}

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().Unix() // want "time.Now \(wall clock\) is reachable"
}

// Roll draws from the global math/rand source.
func Roll() int {
	return rand.Intn(6) // want "rand.Intn \(global source\) is reachable"
}

// Seeded builds an explicitly seeded stream: the blessed constructors and
// method calls on the seeded *rand.Rand are fine.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Race selects between two real channels.
func Race(a, b chan int) int {
	select { // want "select racing 2 channels is reachable"
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Timeout races one real channel against a timer arm only: allowed.
func Timeout(a chan int) int {
	select {
	case v := <-a:
		return v
	case <-time.After(time.Second):
		return -1
	}
}

// Transition reads the clock and reaches global rand one call down, inside
// the same package.
func Transition(x float64) float64 {
	now := time.Now() // want "time.Now \(wall clock\) is reachable"
	_ = now
	return jitter(x)
}

func jitter(x float64) float64 {
	return x + rand.Float64() // want "rand.Float64 \(global source\) is reachable"
}

// Elapsed measures against the wall clock.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since \(wall clock\) is reachable"
}

// Pause only schedules against the clock: nothing it returns depends on the
// time, so sleeps and timers are not clock reads.
func Pause() {
	time.Sleep(time.Millisecond)
}
