// automon-node runs one AutoMon node over TCP: it replays its slice of the
// named workload's stream through its sliding window and reports constraint
// violations to the coordinator.
//
//	automon-node -addr 127.0.0.1:7700 -func inner-product -id 0
//
// Against a multi-group coordinator (automon-coordinator -groups …), pass
// -group to pick the tenant; -func must then name that group's workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"automon/internal/experiments"
	"automon/internal/obs"
	"automon/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "coordinator address")
	fn := flag.String("func", "inner-product", "workload name (must match the coordinator)")
	id := flag.Int("id", 0, "node id")
	group := flag.Int("group", 0, "monitoring group id on a multi-group coordinator")
	batchBytes := flag.Int("batch-bytes", 0, "coalesce outbound messages into one frame up to this many body bytes (0 = batching off)")
	batchDelay := flag.Duration("batch-delay", 0, "longest a coalesced message may wait before its frame is flushed")
	seed := flag.Int64("seed", 1, "master seed (must match the coordinator)")
	full := flag.Bool("full", false, "full-size parameters")
	latency := flag.Duration("latency", 0, "injected one-way latency per message")
	interval := flag.Duration("interval", 0, "delay between data updates (0 = as fast as possible)")
	reconnects := flag.Int("reconnect-attempts", 6, "reconnect attempts per connection loss (-1 disables reconnection)")
	reconnectBase := flag.Duration("reconnect-base", 50*time.Millisecond, "initial reconnect backoff (doubles per attempt, jittered)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address serving /metrics, /debug/vars, /debug/events, and /debug/pprof (empty = disabled)")
	flag.Parse()

	o := experiments.Options{Quick: !*full, Seed: *seed}
	w, err := experiments.NamedWorkload(*fn, o)
	if err != nil {
		fail(err)
	}
	ds := w.Data
	if *id < 0 || *id >= ds.Nodes {
		fail(fmt.Errorf("node id %d out of range (workload has %d nodes)", *id, ds.Nodes))
	}

	window := ds.FilledWindow(*id)

	if *group < 0 || *group >= transport.MaxGroups {
		fail(fmt.Errorf("group id %d out of range [0, %d)", *group, transport.MaxGroups))
	}
	opts := transport.Options{
		Latency:              *latency,
		MaxReconnectAttempts: *reconnects,
		ReconnectBase:        *reconnectBase,
		Group:                transport.GroupID(*group),
		Batch:                transport.BatchOptions{MaxBytes: *batchBytes, MaxDelay: *batchDelay},
	}
	if *obsAddr != "" {
		opts.Metrics = obs.NewRegistry()
		opts.Tracer = obs.NewTracer(1024)
		srv, err := obs.Serve(*obsAddr, opts.Metrics, opts.Tracer)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("automon-node %d: observability on http://%s/metrics\n", *id, srv.Addr)
	}
	node, err := transport.DialNode(*addr, *id, w.F, window.Vector(), opts)
	if err != nil {
		fail(err)
	}
	defer node.Close()
	if err := node.WaitReady(5 * time.Minute); err != nil {
		fail(err)
	}
	fmt.Printf("automon-node %d: monitoring %s over %d rounds\n", *id, w.Name, ds.Rounds)

	updates, violationsSent := 0, node.Stats.MessagesSent.Load()
	for r := 0; r < ds.Rounds; r++ {
		s := ds.Sample(r, *id)
		if s == nil {
			continue
		}
		window.Push(s)
		if err := node.Update(window.Vector()); err != nil {
			// Transient faults (a resolution stalled by a dying connection)
			// are absorbed by the reconnect loop; only a permanent failure
			// — the retry budget ran out — ends the node.
			if perm := node.Err(); perm != nil {
				fail(perm)
			}
		}
		updates++
		if *interval > 0 {
			time.Sleep(*interval)
		}
	}
	fmt.Printf("automon-node %d: done — %d updates, %d messages sent (%d payload bytes), %d reconnects, estimate %.6g\n",
		*id, updates, node.Stats.MessagesSent.Load()-violationsSent+1,
		node.Stats.PayloadSent.Load(), node.Reconnects(), node.CurrentValue())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "automon-node:", err)
	os.Exit(1)
}
