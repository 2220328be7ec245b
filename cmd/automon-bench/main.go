// automon-bench regenerates the tables and figures of the AutoMon paper's
// evaluation as CSV. Each -fig value corresponds to a figure or table of the
// paper; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured notes.
//
// Usage:
//
//	automon-bench -fig 5            # error-communication tradeoff (Figure 5)
//	automon-bench -fig all -full    # everything, full-size parameters
//	automon-bench -fig 10 -latency 28ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"automon/internal/core"
	"automon/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", `figure to regenerate: 1, 3, 4, 5, 6, 7a, 7b, 8, 9, 10, runtime, frontier, adaptive, sketch, or "all"`)
	full := flag.Bool("full", false, "use full-size parameters (slow) instead of the quick defaults")
	seed := flag.Int64("seed", 1, "master seed for data generation and optimizers")
	latency := flag.Duration("latency", 0, "injected one-way latency for the figure-10 WAN runs (e.g. 28ms)")
	parallel := flag.Int("parallel", 0, "worker goroutines for a figure sweep's independent runs (0 = one per core, 1 = one at a time); tables are identical at any setting")
	eigBackend := flag.String("eig-backend", "", `eigen-engine for ADCD-X zone builds: "lbfgs" (default), "interval" (certified), or "hybrid"`)
	sketchRows := flag.Int("sketch-rows", 0, "AMS sketch rows for the ingestion experiments (0 = 4)")
	sketchCols := flag.Int("sketch-cols", 0, "AMS sketch cols for the ingestion experiments (0 = 32)")
	flag.Parse()

	backend, err := core.ParseEigBackend(*eigBackend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "automon-bench: %v\n", err)
		os.Exit(2)
	}
	o := experiments.Options{
		Quick: !*full, Seed: *seed, Workers: *parallel,
		EigBackend: backend,
		SketchRows: *sketchRows, SketchCols: *sketchCols,
	}

	type gen struct {
		name string
		run  func() (*experiments.Table, error)
	}
	gens := []gen{
		{"1", func() (*experiments.Table, error) { return experiments.Fig1SineZones() }},
		{"3", func() (*experiments.Table, error) { return experiments.Fig3NeighborhoodSweep(o) }},
		{"4", func() (*experiments.Table, error) { return experiments.Fig4Traces(o) }},
		{"5", func() (*experiments.Table, error) { return experiments.Fig5Tradeoff(o) }},
		{"6", func() (*experiments.Table, error) { return experiments.Fig6ErrorProfile(o) }},
		{"7a", func() (*experiments.Table, error) { return experiments.Fig7aDimensions(o) }},
		{"7b", func() (*experiments.Table, error) { return experiments.Fig7bNodes(o) }},
		{"8", func() (*experiments.Table, error) { return experiments.Fig8Tuning(o) }},
		{"9", func() (*experiments.Table, error) { return experiments.Fig9Ablation(o) }},
		{"10", func() (*experiments.Table, error) { return experiments.Fig10Bandwidth(o, *latency) }},
		{"runtime", func() (*experiments.Table, error) { return experiments.RuntimeTable(o) }},
		{"frontier", func() (*experiments.Table, error) { return experiments.BackendFrontier(o) }},
		{"adaptive", func() (*experiments.Table, error) { return experiments.AdaptiveTable(o) }},
		{"sketch", func() (*experiments.Table, error) { return experiments.SketchTable(o) }},
	}

	ran := false
	for _, g := range gens {
		if *fig != "all" && *fig != g.name {
			continue
		}
		ran = true
		start := time.Now()
		table, err := g.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "automon-bench: figure %s: %v\n", g.name, err)
			os.Exit(1)
		}
		if err := table.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "automon-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# figure %s done in %v\n", g.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "automon-bench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
