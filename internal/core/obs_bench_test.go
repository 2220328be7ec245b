package core

import (
	"testing"

	"automon/internal/obs"
)

// benchCoordinator builds a small live cluster whose HandleViolation path we
// can hammer. The safe-zone kind exercises the hot branch: lazy sync attempt,
// balancing-set growth, slack redistribution.
func benchCoordinator(b *testing.B, reg *obs.Registry, tracer *obs.Tracer) *Coordinator {
	b.Helper()
	f := rosenbrockFunc()
	const n = 4
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(i, f)
		nodes[i].SetData([]float64{0.1, 0.1})
	}
	cfg := Config{Epsilon: 5, R: 0.5, Decomp: DecompOptions{Seed: 1}, Metrics: reg, Tracer: tracer}
	coord := NewCoordinator(f, n, cfg, &Fabric{Nodes: nodes})
	if err := coord.Init(); err != nil {
		b.Fatal(err)
	}
	return coord
}

func benchHandleViolation(b *testing.B, coord *Coordinator) {
	v := &Violation{NodeID: 0, Kind: ViolationSafeZone, X: []float64{0.12, 0.11}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coord.HandleViolation(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandleViolationObsOff is the default configuration of every CLI
// when -obs-addr is unset: no registry, no tracer. The protocol counters are
// still live atomics (Stats reads them), the tracer no-ops on nil.
func BenchmarkHandleViolationObsOff(b *testing.B) {
	benchHandleViolation(b, benchCoordinator(b, nil, nil))
}

// BenchmarkHandleViolationObsOn attaches a registry and a tracer; comparing
// against ObsOff shows what full observability costs on the hot path.
func BenchmarkHandleViolationObsOn(b *testing.B) {
	benchHandleViolation(b, benchCoordinator(b, obs.NewRegistry(), obs.NewTracer(1024)))
}
