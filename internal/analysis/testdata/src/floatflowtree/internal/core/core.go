// Package core is the deterministic-package root set of the determinism
// tree fixture (loaded under fixture/floatflow/internal/core): every
// function here is a rule-1 reachability root, and Dump/Report exercise the
// rule-2 sinks. Rule 1 reports at the sites in helper and at those in this
// package alike.
package core

import (
	"encoding/csv"
	"math/rand"
	"strconv"

	"fixture/floatflow/helper"
	"fixture/floatflow/internal/obs"
)

// Resolve reaches helper's order-sensitive map fold.
func Resolve(m map[string]float64) float64 {
	return helper.Fold(m)
}

// Idle reaches helper's racing select.
func Idle(a, b chan int) int {
	return helper.Race(a, b)
}

// Stats reaches global rand two calls down.
func Stats() float64 {
	return helper.Draw()
}

// Sampled waives the call edge: the waiver prunes helper.Sampler's subtree.
func Sampled(m map[string]float64) float64 {
	//automon:allow determinism fixture: sampled diagnostics only, never protocol state
	return helper.Sampler(m)
}

// Stamped reaches a clock read outside the deterministic packages: a
// timestamp helper decides no protocol value, so it is not a finding.
func Stamped() int64 {
	return helper.Stamp()
}

// Dump exercises the CSV sink: rowOf has an order-sensitive fold in its
// call closure, and rand.Int is a direct external taint source.
func Dump(w *csv.Writer, rows map[string][]string) error {
	if err := w.Write(rowOf(rows)); err != nil { // want "core.rowOf has nondeterminism in its call closure and flows into csv.Write"
		return err
	}
	return w.Write([]string{strconv.Itoa(rand.Int())}) // want "rand.Int \(global source\) flows into csv.Write; the recorded value is nondeterministic" "rand.Int \(global source\) is reachable from the deterministic packages \(core.Dump\)"
}

// Report taints a metric sink through a module call closure; the clean
// closure next to it stays clean.
func Report(g *obs.Gauge) {
	g.Set(helper.Draw()) // want "helper.Draw has nondeterminism in its call closure and flows into metric obs.Gauge.Set"
	g.Set(cleanValue())
}

func rowOf(rows map[string][]string) []string {
	var out []string
	for _, r := range rows { // want "order-sensitive map iteration is reachable from the deterministic packages \(core.rowOf\)"
		out = append(out, r...)
	}
	return out
}

func cleanValue() float64 { return 1.5 }
