package main

// record.go is the run record and its comparison: --capture runs every
// workload several times in fresh processes and writes one JSON file that
// carries everything needed to repeat the capture; --compare reads two of
// them and judges every (workload, end-to-end metric) pair against the bound
// ISSUE 12 fixed for it (metricDef.tight).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OSArch     string `json:"os_arch"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per repetition
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type workloadRecord struct {
	Nodes     int                    `json:"nodes"`
	PerNode   int                    `json:"events_per_node_per_lap"`
	Attempted []int64                `json:"attempted"`
	Failed    []int64                `json:"failed"`
	EndToEnd  map[string]*series     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

type runRecord struct {
	Schema    int                        `json:"schema"`
	Host      hostInfo                   `json:"host"`
	GitSHA    string                     `json:"git_sha"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Reps      int                        `json:"repetitions"`
	Drivers   int                        `json:"driver_goroutines"`
	Workloads map[string]*workloadRecord `json:"workloads"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		sha += "+dirty"
	}
	return sha
}

// quartiles are Python's statistics.quantiles(values, n=4), which is what the
// driver uses: cut points at (n+1)·k/4 with linear interpolation.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// selfRun runs this binary once in a fresh process and parses the result
// line.
func selfRun(w string, seed int64, seconds float64, trace int) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultLine
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s: no result line: %w", w, jerr)
	}
	return &res, nil
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func captureRecord(path, only string, seed int64, seconds float64, reps int) int {
	rec := &runRecord{
		Schema: 1, Host: fingerprint(), GitSHA: gitSHA(), Seed: seed, Seconds: seconds,
		Reps: reps, Drivers: drivers, Workloads: map[string]*workloadRecord{},
	}
	var chosen []*workload
	for _, w := range workloads {
		if only == "" || w.name == only {
			chosen = append(chosen, w)
			nodes, perNode := w.sized(1)
			rec.Workloads[w.name] = &workloadRecord{Nodes: nodes, PerNode: perNode, EndToEnd: map[string]*series{}}
		}
	}
	// Repetition-major: each repetition runs every workload once. On a shared
	// host a disturbance lasts minutes, so it touches one repetition of every
	// workload rather than every repetition of one.
	failed := false
	for rep := 0; rep < reps; rep++ {
		for _, w := range chosen {
			wr := rec.Workloads[w.name]
			res, err := selfRun(w.name, seed, seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "capture: %s rep %d: %v\n", w.name, rep, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "capture: %s rep %d/%d: %.6g events/s, failed %d\n",
				w.name, rep+1, reps, res.Metrics["events_per_s"].Value, res.Failed)
			wr.Attempted = append(wr.Attempted, res.Attempted)
			wr.Failed = append(wr.Failed, res.Failed)
			failed = failed || res.Failed > 0
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.name]
				if s == nil {
					s = &series{Unit: d.unit}
					wr.EndToEnd[d.name] = s
				}
				s.Values = append(s.Values, res.Metrics[d.name].Value)
			}
		}
	}
	for _, w := range chosen {
		wr := rec.Workloads[w.name]
		for _, s := range wr.EndToEnd {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}
		res, err := selfRun(w.name, seed, seconds, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "capture: %s traced: %v\n", w.name, err)
			return 1
		}
		failed = failed || res.Failed > 0
		wr.PerLayer = res.Metrics
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "capture: %v\n", err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "capture: %v\n", err)
		return 1
	}
	if failed {
		fmt.Fprintln(os.Stderr, "capture: some runs had failed operations")
		return 1
	}
	return 0
}

func loadRecord(path string) (*runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec runRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// verdict judges b against a for one metric on one workload. worse is how far
// b's median is on the wrong side of a's, as a share of a's; bound is what it
// was judged against.
//
//	not judged  the metric's layer is not on this workload's path
//	unresolved  the runs of one side disagree by more than the bound, and not
//	            every run of b reads better than every run of a
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better by more than a's own interquartile range
//	same        otherwise
//
// Where the metric must repeat exactly the bound is zero: any run that
// differs from the rest is unresolved, any shift of the median better or
// worse.
func verdict(w *workload, d metricDef, a, b *series) (v string, worse, bound float64) {
	sign := 1.0
	if d.better == "higher" {
		sign = -1
	}
	worse = sign * ratio(b.Median-a.Median, a.Median)
	if d.judged != nil && !d.judged(w) {
		return "not judged", worse, 0
	}
	bound = d.tight
	switch {
	case exactOn(w, d):
		bound = 0
	case d.name == "setup_s" && a.Median > 0:
		bound = max(bound, setupFloorS/a.Median)
	}
	spreadA, spreadB := ratio(a.Q3-a.Q1, a.Median), ratio(b.Q3-b.Q1, b.Median)
	if max(spreadA, spreadB) > bound {
		allBetter := len(a.Values) > 0 && len(b.Values) > 0
		for _, x := range a.Values {
			for _, y := range b.Values {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better", worse, bound
		}
		return "unresolved", worse, bound
	}
	switch {
	case worse > bound:
		return "worse", worse, bound
	case worse < 0 && -worse > spreadA:
		return "better", worse, bound
	}
	return "same", worse, bound
}

func compareRecords(pathA, pathB string) int {
	a, err := loadRecord(pathA)
	if err == nil {
		var b *runRecord
		if b, err = loadRecord(pathB); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "compare: %v\n", err)
	return 2
}

func printComparison(a, b *runRecord) int {
	fmt.Printf("A: %s seed %d, %d reps, %s, %s\nB: %s seed %d, %d reps, %s, %s\n",
		a.GitSHA, a.Seed, a.Reps, a.Host.CPUModel, a.Host.GoVersion,
		b.GitSHA, b.Seed, b.Reps, b.Host.CPUModel, b.Host.GoVersion)
	fmt.Printf("%-15s %-22s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "bound", "verdict")
	counts := map[string]int{}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if sa == nil || sb == nil {
				continue
			}
			v, worse, bound := verdict(w, d, sa, sb)
			counts[v]++
			shown := fmt.Sprintf("%.0f%%", 100*bound)
			if v == "not judged" {
				shown = "-"
			}
			fmt.Printf("%-15s %-22s %12.6g %25s %12.6g %25s %+7.1f%% %6s  %s\n",
				w.name, d.name, sa.Median, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3), 100*worse, shown, v)
		}
	}
	fmt.Printf("better %d  same %d  worse %d  unresolved %d  not judged %d   (delta: share of A's median by which B is worse)\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"], counts["not judged"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}
