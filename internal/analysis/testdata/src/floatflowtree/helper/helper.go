// Package helper sits outside the deterministic packages; its
// nondeterminism sites are findings only when protocol code reaches them
// (rule 1), and only at the site, with the call chain in the message. Its
// clock reads are never findings.
package helper

import (
	"math/rand"
	"time"
)

// Fold is order-sensitive: float accumulation depends on map iteration
// order, so the sum differs run to run.
func Fold(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want "order-sensitive map iteration is reachable from the deterministic packages"
		s += v
	}
	return s
}

// Race returns whichever channel delivers first.
func Race(a, b chan int) int {
	select { // want "select racing 2 channels is reachable from the deterministic packages"
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Draw reaches global rand one call deeper; the chain in the diagnostic
// names the root in core.
func Draw() float64 {
	return deep()
}

func deep() float64 {
	return rand.Float64() // want "rand.Float64 \(global source\) is reachable from the deterministic packages"
}

// Sampler is reached only through a waived call edge in core: pruned.
func Sampler(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// Orphan is never reached from the deterministic packages: clean.
func Orphan() float64 {
	return rand.Float64()
}

// Stamp reads the wall clock outside the deterministic packages; core
// reaches it, and it is still clean.
func Stamp() int64 {
	return time.Now().UnixNano()
}
