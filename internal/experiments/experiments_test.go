package experiments

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"automon/internal/autodiff"
	"automon/internal/core"
	"automon/internal/sim"
	"automon/internal/stream"
)

// tinyOpts shrinks everything far below even Quick size for unit tests.
func tinyOpts() Options { return Options{Quick: true, Seed: 1} }

func TestTableCSV(t *testing.T) {
	tab := &Table{Name: "demo", Header: []string{"a", "b"}}
	tab.Add(1, 2.5)
	tab.Add("x", 3)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# demo\na,b\n1,2.5\nx,3\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestFig1MatchesPaperEndpoints(t *testing.T) {
	tab, err := Fig1SineZones()
	if err != nil {
		t.Fatal(err)
	}
	get := func(region string) (lo, hi float64) {
		for _, r := range tab.Rows {
			if r[0] == region {
				lo, _ = strconv.ParseFloat(r[1], 64)
				hi, _ = strconv.ParseFloat(r[2], 64)
				return lo, hi
			}
		}
		t.Fatalf("region %q missing", region)
		return 0, 0
	}
	// Paper Figure 1 axis labels: admissible [0.927, 2.214], convex zone
	// [0.938, 2.203], concave zone [1.1206, 2.0210].
	checks := []struct {
		region string
		lo, hi float64
	}{
		{"admissible", 0.927, 2.214},
		{"convex-difference", 0.938, 2.203},
		{"concave-difference", 1.121, 2.020},
	}
	for _, c := range checks {
		lo, hi := get(c.region)
		if math.Abs(lo-c.lo) > 5e-3 || math.Abs(hi-c.hi) > 5e-3 {
			t.Errorf("%s = [%v, %v], paper [%v, %v]", c.region, lo, hi, c.lo, c.hi)
		}
	}
}

func TestNamedWorkloadRegistry(t *testing.T) {
	o := tinyOpts()
	for _, name := range []string{"inner-product", "inner-product-20", "quadratic", "kld", "rosenbrock"} {
		w, err := NamedWorkload(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.F == nil || w.Data == nil {
			t.Fatalf("%s: incomplete workload", name)
		}
	}
	w, err := NamedWorkload("kld-40", o)
	if err != nil {
		t.Fatal(err)
	}
	if w.F.Dim() != 40 {
		t.Fatalf("kld-40 dim = %d", w.F.Dim())
	}
	if _, err := NamedWorkload("nope", o); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadsRunnable(t *testing.T) {
	// Every cheap workload must complete a short AutoMon run within its
	// error regime; this is the integration smoke test for the experiment
	// plumbing.
	o := tinyOpts()
	cases := []struct {
		w   *Workload
		eps float64
	}{
		{InnerProductWorkload(o, 8, 4), 0.3},
		{QuadraticWorkload(o, 8, 4), 0.1},
	}
	for _, c := range cases {
		c.w.Data = c.w.Data.Slice(0, 60)
		res, err := c.w.run(sim.AutoMon, c.eps, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", c.w.Name, err)
		}
		if res.Rounds != 60 {
			t.Fatalf("%s: rounds = %d", c.w.Name, res.Rounds)
		}
		if res.MaxErr > c.eps+1e-9 {
			t.Fatalf("%s: constant-Hessian workload broke the bound: %v > %v", c.w.Name, res.MaxErr, c.eps)
		}
	}
}

func TestReplayDataShape(t *testing.T) {
	o := tinyOpts()
	w := RosenbrockWorkload(o, 3, 1000)
	w.Data = w.Data.Slice(0, 40)
	data, err := replayData(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 41 { // initial snapshot + one per round
		t.Fatalf("replay rounds = %d, want 41", len(data))
	}
	if len(data[0]) != 3 || len(data[0][0]) != 2 {
		t.Fatalf("replay shape wrong: %dx%d", len(data[0]), len(data[0][0]))
	}
}

func TestSaddleAblationGeometry(t *testing.T) {
	w := saddleAblationWorkload(tinyOpts())
	// Nodes 2 and 3 drift along f's zero-level set; node 0/1 stay near 0.
	last := w.Data.Sample(w.Data.Rounds-1, 2)
	if math.Abs(last[0]-last[1]) > 0.05 {
		t.Fatalf("node 2 should ride the diagonal, got %v", last)
	}
	f := w.F
	if v := f.Value(last); math.Abs(v) > 0.1 {
		t.Fatalf("diagonal point has f = %v, want ≈ 0", v)
	}
}

func TestOptionsRounds(t *testing.T) {
	q := Options{Quick: true}
	if got := q.rounds(1000); got != 500 {
		t.Fatalf("quick rounds(1000) = %d", got)
	}
	if got := q.rounds(30000); got != 3000 {
		t.Fatalf("quick rounds(30000) = %d", got)
	}
	f := Options{}
	if got := f.rounds(1000); got != 1000 {
		t.Fatalf("full rounds(1000) = %d", got)
	}
}

func TestSumHeader(t *testing.T) {
	if len(tradeoffHeader) != 7 || !strings.Contains(strings.Join(tradeoffHeader, ","), "messages") {
		t.Fatal("tradeoff header drifted; fix sumMessages consumers")
	}
}

// TestFig8ProceedsOnUnconvergedBracket: the both-ends-fail tuning prefix of
// sim's TestRunProceedsWhenTuningBracketDoesNotConverge (a stream creeping by
// 10⁻⁷ per round against ε = 10⁻⁹, plus a jump past the domain face that
// clips every neighborhood box). Fig. 8 used to abort on it; now the
// repetition keeps the grid point Tune returns and lands in a flagged row.
func TestFig8ProceedsOnUnconvergedBracket(t *testing.T) {
	f := core.NewFunction("exp", 1, func(b *autodiff.Builder, x []autodiff.Ref) autodiff.Ref {
		return b.Exp(x[0])
	}).WithDomain([]float64{0}, []float64{1})
	ds := stream.NewCustom("creep", 3, 10, 1, 1, func(round, node int) []float64 {
		if node == 0 {
			if round < 5 {
				return []float64{0.1}
			}
			return []float64{0.9}
		}
		return []float64{0.3 + 1e-7*float64(round)}
	})
	data, err := replayData(&Workload{Name: "creep", F: f, Data: ds})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Epsilon: 1e-9, Decomp: core.DecompOptions{Seed: 1}}
	if _, err := core.Tune(f, data, ds.Nodes, cfg); !errors.Is(err, core.ErrBracketNotConverged) {
		t.Fatalf("Tune err = %v; the prefix no longer provokes the failure this test guards", err)
	}
	strategy, r, err := tunedRadius(f, data, ds.Nodes, cfg)
	if err != nil {
		t.Fatalf("figure aborted: %v", err)
	}
	if strategy != "tuned-unconverged" || !(r > 0) || math.IsInf(r, 0) {
		t.Fatalf("got row %q with r = %v, want a flagged row at the best grid point", strategy, r)
	}
	// A bracket that converges keeps the plain label.
	w := RosenbrockWorkload(tinyOpts(), 3, 1000)
	w.Data = w.Data.Slice(0, 40)
	if data, err = replayData(w); err != nil {
		t.Fatal(err)
	}
	if strategy, _, err = tunedRadius(w.F, data, w.Data.Nodes, core.Config{Epsilon: 0.5, Decomp: w.Decomp}); err != nil || strategy != "tuned" {
		t.Fatalf("converged bracket: row %q, err %v", strategy, err)
	}
}
