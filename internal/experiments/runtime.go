package experiments

import (
	"time"

	"automon/internal/core"
)

// RuntimeTable reproduces the §4.4 runtime measurements: per-update node
// check time and coordinator full-sync time as the dimension grows, for an
// ADCD-X function (KLD) and an ADCD-E function (inner product).
func RuntimeTable(o Options) (*Table, error) {
	t := &Table{
		Name:   "sec4.4: node and coordinator runtime",
		Header: []string{"function", "dim", "node_update_us", "full_sync_ms", "method"},
	}
	dims := []int{10, 20, 40, 100, 200}
	if o.Quick {
		dims = []int{10, 20, 40, 100}
	}
	for _, d := range dims {
		for _, mk := range []struct {
			name string
			eps  float64
			wl   func() (*Workload, error)
		}{
			{"kld", 0.02, func() (*Workload, error) { return KLDWorkload(o, d, 12, 1000), nil }},
			{"inner-product", 0.2, func() (*Workload, error) { return InnerProductWorkload(o, d, 12), nil }},
		} {
			w, err := mk.wl()
			if err != nil {
				return nil, err
			}
			nodeUS, syncMS, method, err := measureRuntime(w, mk.eps)
			if err != nil {
				return nil, err
			}
			t.Add(mk.name, d, nodeUS, syncMS, method)
		}
	}
	return t, nil
}

// measureRuntime times a node constraint check and a coordinator full sync
// for one workload.
func measureRuntime(w *Workload, eps float64) (nodeUS, syncMS float64, method string, err error) {
	ds := w.Data
	n := ds.Nodes
	vecs := ds.Snapshots(ds.FilledWindows(), 0, 0)[0] // the warmed-up local vectors

	g := core.NewGroup(w.F, vecs)
	r := w.FixedR
	if r == 0 {
		r = 0.05
	}
	coord := core.NewCoordinator(w.F, n, core.Config{Epsilon: eps, R: r, Decomp: w.Decomp}, g)

	// Full-sync time: average over a few syncs (the first includes the
	// one-time ADCD-E eigendecomposition, matching the paper's setup cost).
	syncs := 3
	//automon:allow determinism wall-clock runtime is this experiment's measured output (fig 10)
	start := time.Now()
	if err := g.Start(coord); err != nil {
		return 0, 0, "", err
	}
	for k := 1; k < syncs; k++ {
		if err := g.Resolve(&core.Violation{
			NodeID: 0, Kind: core.ViolationFaulty, X: vecs[0],
		}); err != nil {
			return 0, 0, "", err
		}
	}
	//automon:allow determinism wall-clock runtime is this experiment's measured output (fig 10)
	syncMS = float64(time.Since(start).Microseconds()) / 1000 / float64(syncs)

	// Node update time: re-check constraints on the same vector many times.
	const checks = 2000
	//automon:allow determinism wall-clock runtime is this experiment's measured output (fig 10)
	start = time.Now()
	for k := 0; k < checks; k++ {
		g.Update(1, vecs[1])
	}
	//automon:allow determinism wall-clock runtime is this experiment's measured output (fig 10)
	nodeUS = float64(time.Since(start).Nanoseconds()) / 1000 / checks
	return nodeUS, syncMS, coord.Method().String(), nil
}
