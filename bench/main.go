// Command bench is the AutoMon benchmark: five closed-loop workloads over
// loopback sockets and in-process fleets, nine end-to-end metrics, a layer
// registry and a traced run. See README.md in this directory.
//
//	bash bench/run.sh --workload storm-sock --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --capture bench/out/a.json --seed 1
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run (see --list); with --capture, empty runs all five")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure; decides how many whole laps run")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics, 0 reports the end-to-end metrics")
	scale := flag.Float64("scale", 1, "lap size relative to the frozen one (tests use 0.01)")
	list := flag.Bool("list", false, "print workloads and metrics, then exit")
	capture := flag.String("capture", "", "run every workload --reps times, traced once, and write a run record to this file")
	reps := flag.Int("reps", 5, "with --capture: untraced repetitions per workload")
	compare := flag.Bool("compare", false, "compare two run records: --compare a.json b.json")
	flag.Parse()

	switch {
	case *list:
		printList()
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: --compare a.json b.json")
			return 2
		}
		return compareRecords(flag.Arg(0), flag.Arg(1))
	case *capture != "":
		return captureRecord(*capture, *name, *seed, *seconds, *reps)
	}

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q; --list names them\n", *name)
		return 2
	}
	res, err := runWorkload(runConfig{
		w: w, seed: *seed, seconds: *seconds, scale: *scale, traced: *trace == 1, outDir: traceDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := printResult(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the one-line
// JSON object the driver reads. A value JSON cannot carry (NaN, ±Inf) is an
// error: a run that printed no result line must not exit 0.
func printResult(res *runResult) error {
	fmt.Printf("workload %s  seed %d  scale %g  %d nodes × %d events × %d laps  traced=%v\n",
		res.Workload, res.Seed, res.Scale, res.Nodes, res.PerNode, res.Laps, res.Traced)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-42s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  ops %d  failed_ops %d  checkpoints %d\n", res.Attempted, res.Failed, res.Checks)
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-15s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, d := range endToEnd {
		fmt.Printf("  %-42s %-6s better=%-6s driver bound=%g compare bound=%g\n", d.name, d.unit, d.better, d.bound, d.tight)
	}
	fmt.Println("per-layer metrics (--trace 1):")
	for _, d := range perLayer {
		fmt.Printf("  %-42s %-6s better=%-6s src=%s\n", d.name, d.unit, d.better, d.src)
	}
}
