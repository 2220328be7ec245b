package transport

import (
	"fmt"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/obs"
)

// TestRegistryMatchesTrafficStats drives a live cluster with an attached
// registry and tracer and asserts that what a /metrics scrape would report is
// byte-for-byte what the Stats accessors report — the counters are the same
// instruments, so any drift is a binding regression.
func TestRegistryMatchesTrafficStats(t *testing.T) {
	reg := obs.NewRegistry()
	const ring = 1 << 16
	tracer := obs.NewTracer(ring)
	opts := Options{Metrics: reg, Tracer: tracer}

	const half, n = 2, 2
	f := funcs.InnerProduct(half)
	initial := [][]float64{{0, 0, 1, 1}, {0, 0, 1, 1}}
	coord, nodes := startCluster(t, f, n, core.Config{Epsilon: 0.05}, opts, initial)
	defer coord.Close()
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	for step := 1; step <= 15; step++ {
		for _, nd := range nodes {
			u := 0.1 * float64(step)
			if err := nd.Update([]float64{u, u, 1, 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Quiesce: wait until the coordinator's counters stop moving.
	stable, last := 0, int64(-1)
	for stable < 5 {
		time.Sleep(10 * time.Millisecond)
		cur := coord.Stats.MessagesSent.Load() + coord.Stats.MessagesReceived.Load()
		if cur == last {
			stable++
		} else {
			stable = 0
		}
		last = cur
	}

	snap := reg.Snapshot()
	expect := func(name string, want int64) {
		t.Helper()
		got, ok := snap[name]
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		if int64(got) != want {
			t.Errorf("metric %s = %v, Stats reports %d", name, got, want)
		}
	}

	expect(`automon_transport_messages_total{dir="sent",side="coordinator"}`, coord.Stats.MessagesSent.Load())
	expect(`automon_transport_messages_total{dir="recv",side="coordinator"}`, coord.Stats.MessagesReceived.Load())
	expect(`automon_transport_payload_bytes_total{dir="sent",side="coordinator"}`, coord.Stats.PayloadSent.Load())
	expect(`automon_transport_payload_bytes_total{dir="recv",side="coordinator"}`, coord.Stats.PayloadReceived.Load())
	expect(`automon_transport_wire_bytes_total{dir="sent",side="coordinator"}`, coord.Stats.WireSent.Load())
	expect(`automon_transport_wire_bytes_total{dir="recv",side="coordinator"}`, coord.Stats.WireReceived.Load())
	for i, nd := range nodes {
		expect(fmt.Sprintf(`automon_transport_messages_total{dir="sent",side="node",node="%d"}`, i), nd.Stats.MessagesSent.Load())
		expect(fmt.Sprintf(`automon_transport_messages_total{dir="recv",side="node",node="%d"}`, i), nd.Stats.MessagesReceived.Load())
		expect(fmt.Sprintf(`automon_transport_reconnects_total{node="%d"}`, i), nd.Reconnects())
	}

	// The core coordinator inherits the endpoint registry, so the protocol
	// counters land in the same scrape and must match CoordStats.
	cs := coord.CoordStats()
	expect("automon_coordinator_full_syncs_total", int64(cs.FullSyncs))
	expect(`automon_coordinator_violations_total{kind="safe_zone"}`, int64(cs.SafeZoneViolations))
	expect("automon_coordinator_lazy_sync_attempts_total", int64(cs.LazyAttempts))

	// The tracer saw every frame both endpoints counted (ring is large
	// enough that nothing was evicted in a run this small: a ring with a
	// free slot left has never wrapped).
	if n := len(tracer.Snapshot()); n >= ring {
		t.Fatalf("tracer may have overflowed (%d events retained in a ring of %d); enlarge the ring", n, ring)
	}
	var sent, recv uint64
	for _, e := range tracer.Snapshot() {
		switch e.Kind {
		case obs.EventFrameSent:
			sent++
		case obs.EventFrameReceived:
			recv++
		}
	}
	wantSent := uint64(coord.Stats.MessagesSent.Load())
	wantRecv := uint64(coord.Stats.MessagesReceived.Load())
	for _, nd := range nodes {
		wantSent += uint64(nd.Stats.MessagesSent.Load())
		wantRecv += uint64(nd.Stats.MessagesReceived.Load())
	}
	if sent != wantSent || recv != wantRecv {
		t.Fatalf("tracer frames (sent %d, recv %d) disagree with counters (sent %d, recv %d)",
			sent, recv, wantSent, wantRecv)
	}
}

// TestZeroValueTrafficStatsWorks pins the lazy-initialization contract the
// fuzz targets rely on: a zero-value TrafficStats counts without Bind.
func TestZeroValueTrafficStatsWorks(t *testing.T) {
	var s TrafficStats
	s.countSendBatch([]int{10}, []string{"sync"})
	s.countRecvBatch([]core.Message{&core.Violation{}}, []int{4})
	if s.MessagesSent.Load() != 1 || s.MessagesReceived.Load() != 1 {
		t.Fatalf("zero-value stats did not count: %d/%d", s.MessagesSent.Load(), s.MessagesReceived.Load())
	}
	if s.WireSent.Load() != 10+batchHdrLen+batchSubHeader+frameHeader+perMessageWireOverhead {
		t.Fatalf("wire accounting off: %d", s.WireSent.Load())
	}
}
