package main

import "math"

// workload is one set of inputs the benchmark runs. Names are fixed: later
// issues cite them, and BENCHMARK.json lists them with the same reasons.
type workload struct {
	name string
	why  string
	// sock runs node clients and a coordinator over loopback sockets;
	// otherwise the fleet is in-process over the bench fabric.
	sock  bool
	elide bool
	topo  topology
	// nodes and perNode are the lap size at scale 1: a lap offers perNode
	// events to each of nodes nodes. The counts are part of the workload's
	// identity (the sketch episodes scale with perNode), so a run's length is
	// set by how many whole laps fit, never by cutting a lap short.
	nodes, perNode int
	gen            func(nodes, perNode int, seed int64) (*input, error)
}

var workloads = []*workload{
	{
		name: "quiet-sock",
		why:  "sketch F2 d=256 over sockets on a churn stream: the elision fast path does nearly all the work, so transport and machine changes must show no change here",
		sock: true, elide: true, nodes: 8, perNode: 150_000,
		gen: func(n, per int, seed int64) (*input, error) { return sketchInput("churn", n, per, seed) },
	},
	{
		name: "storm-sock",
		why:  "same topology on an episode stream: violation-dense, so codec, frame batching, dispatch queue, data pulls and lazy sync dominate and zone build is a cached matrix",
		sock: true, elide: true, nodes: 8, perNode: 16_000,
		gen: func(n, per int, seed int64) (*input, error) { return sketchInput("episodes", n, per, seed) },
	},
	{
		name: "zonebuild-sock",
		why:  "KLD d=100 over sockets with ADCD-X: every full sync runs the eigenvalue search, the only workload where decompose, optimize, autodiff Hessians and EigenSym set the result",
		sock: true, nodes: 8, perNode: 2_000,
		gen: func(n, per int, seed int64) (*input, error) { return histogramInput(n, per, seed), nil },
	},
	{
		name: "fleet-flat",
		why:  "8192 in-process nodes under the flat coordinator: per-violation LRU and slack cost and per-sync Collect/Distribute cost scale with n; transport is absent",
		topo: topoFlat, nodes: 8192, perNode: 200,
		gen: func(n, per int, seed int64) (*input, error) { return driftInput(n, per, seed), nil },
	},
	{
		name: "fleet-tree64",
		why:  "the same stream through a 64-leaf routing tree: same machine over the other ownership, message counts must equal fleet-flat so only time and allocations may differ",
		topo: topoTree64, nodes: 8192, perNode: 200,
		gen: func(n, per int, seed int64) (*input, error) { return driftInput(n, per, seed), nil },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sized returns the lap size at a scale. Socket workloads keep their eight
// nodes and shorten the stream; fleets shrink in both directions, but never
// below one node per tree leaf or two rounds per checkpoint.
func (w *workload) sized(scale float64) (nodes, perNode int) {
	if scale >= 1 {
		return w.nodes, w.perNode
	}
	if w.sock {
		return w.nodes, max(int(float64(w.perNode)*scale), 2*checksPerLap)
	}
	side := math.Sqrt(scale)
	return max(int(float64(w.nodes)*side), 128), max(int(float64(w.perNode)*side), 2*checksPerLap)
}
