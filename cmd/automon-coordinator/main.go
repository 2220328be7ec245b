// automon-coordinator runs an AutoMon coordinator behind a TCP listener for
// a distributed deployment. Start it first, then launch one automon-node per
// node id with the same -func and -seed so both sides build identical
// models.
//
//	automon-coordinator -addr :7700 -func inner-product -nodes 10 -eps 0.1
//
// With -groups the same listener hosts several monitoring groups at once —
// one per named workload, group ids assigned in order — and nodes pick their
// tenant with automon-node -group:
//
//	automon-coordinator -addr :7700 -groups inner-product,quadratic -nodes 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"automon/internal/core"
	"automon/internal/experiments"
	"automon/internal/obs"
	"automon/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7700", "listen address")
	fn := flag.String("func", "inner-product", "workload name (must match the nodes)")
	groups := flag.String("groups", "", "comma-separated workload names hosted as groups 0..k-1 on this listener (overrides -func)")
	nodes := flag.Int("nodes", 10, "number of nodes that will register (per group)")
	eps := flag.Float64("eps", 0.1, "approximation error bound ε")
	r := flag.Float64("r", 1, "ADCD-X neighborhood size")
	seed := flag.Int64("seed", 1, "master seed (must match the nodes)")
	full := flag.Bool("full", false, "full-size parameters")
	latency := flag.Duration("latency", 0, "injected one-way latency per message")
	batchBytes := flag.Int("batch-bytes", 0, "coalesce outbound messages into one frame up to this many body bytes (0 = batching off)")
	batchDelay := flag.Duration("batch-delay", 0, "longest a coalesced message may wait before its frame is flushed")
	report := flag.Duration("report", 2*time.Second, "estimate reporting interval")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address serving /metrics, /debug/vars, /debug/events, and /debug/pprof (empty = disabled)")
	eigBackend := flag.String("eig-backend", "", `eigen-engine for ADCD-X zone builds: "lbfgs" (default), "interval" (certified), or "hybrid"`)
	adaptiveR := flag.Bool("adaptive-r", false, "enable the drift-aware radius controller (re-tunes r online, shrinking as well as growing)")
	rMax := flag.Float64("r-max", 0, "cap on §3.6 radius doubling (0 = derive from the domain or configured r, negative = uncapped)")
	flag.Parse()

	radius := radiusOptions{adaptive: *adaptiveR, rMax: *rMax}

	backend, err := core.ParseEigBackend(*eigBackend)
	if err != nil {
		fail(err)
	}
	o := experiments.Options{Quick: !*full, Seed: *seed, EigBackend: backend}
	opts := transport.Options{
		Latency: *latency,
		Batch:   transport.BatchOptions{MaxBytes: *batchBytes, MaxDelay: *batchDelay},
	}
	if *obsAddr != "" {
		opts.Metrics = obs.NewRegistry()
		opts.Tracer = obs.NewTracer(1024)
		srv, err := obs.Serve(*obsAddr, opts.Metrics, opts.Tracer)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("automon-coordinator: observability on http://%s/metrics\n", srv.Addr)
	}

	if *groups != "" {
		runMulti(strings.Split(*groups, ","), *addr, *nodes, *eps, *r, radius, o, opts, *report)
		return
	}

	w, err := experiments.NamedWorkload(*fn, o)
	if err != nil {
		fail(err)
	}
	cfg := workloadConfig(w, *eps, *r, radius)

	coord, err := transport.ListenCoordinator(*addr, w.F, *nodes, cfg, opts)
	if err != nil {
		fail(err)
	}
	defer coord.Close()
	fmt.Printf("automon-coordinator: listening on %s for %d nodes (f = %s, ε = %g)\n",
		coord.Addr(), *nodes, w.Name, *eps)

	select {
	case <-coord.Ready():
	case <-time.After(5 * time.Minute):
		fail(fmt.Errorf("nodes never registered"))
	}
	fmt.Println("automon-coordinator: all nodes registered, monitoring")

	ticker := time.NewTicker(*report)
	defer ticker.Stop()
	for range ticker.C {
		if err := coord.Err(); err != nil {
			// Connection churn is survivable (nodes are marked dead and can
			// rejoin); only protocol-level faults land here and end the run.
			stats := coord.CoordStats()
			fmt.Printf("automon-coordinator: shutting down (%v)\n", err)
			fmt.Printf("  full syncs %d, lazy resolved %d/%d, violations: %d neighborhood / %d safe-zone / %d faulty\n",
				stats.FullSyncs, stats.LazyResolved, stats.LazyAttempts,
				stats.NeighborhoodViolations, stats.SafeZoneViolations, stats.FaultyViolations)
			fmt.Printf("  liveness: %d node deaths, %d rejoins\n", stats.NodeDeaths, stats.Rejoins)
			fmt.Printf("  traffic: sent %d msgs / %d payload bytes / %d wire bytes; received %d msgs / %d payload bytes\n",
				coord.Stats.MessagesSent.Load(), coord.Stats.PayloadSent.Load(), coord.Stats.WireSent.Load(),
				coord.Stats.MessagesReceived.Load(), coord.Stats.PayloadReceived.Load())
			return
		}
		status := ""
		if coord.Degraded() {
			// The ε-guarantee currently covers the live nodes only.
			status = fmt.Sprintf("  DEGRADED: %d/%d nodes live", coord.LiveNodes(), *nodes)
		}
		fmt.Printf("estimate f(x̄) ≈ %.6g  (msgs in/out: %d/%d)%s\n",
			coord.Estimate(), coord.Stats.MessagesReceived.Load(), coord.Stats.MessagesSent.Load(), status)
	}
}

// runMulti hosts one monitoring group per named workload on a single
// listener and reports every group's estimate each tick.
func runMulti(names []string, addr string, nodes int, eps, r float64,
	radius radiusOptions, o experiments.Options, opts transport.Options, report time.Duration) {
	mc, err := transport.ListenMulti(addr, opts)
	if err != nil {
		fail(err)
	}
	defer mc.Close()

	type tenant struct {
		gid   transport.GroupID
		name  string
		coord *transport.Coordinator
	}
	tenants := make([]tenant, 0, len(names))
	for gid, name := range names {
		name = strings.TrimSpace(name)
		w, err := experiments.NamedWorkload(name, o)
		if err != nil {
			fail(err)
		}
		c, err := mc.AddGroup(transport.GroupID(gid), w.F, nodes, workloadConfig(w, eps, r, radius))
		if err != nil {
			fail(err)
		}
		tenants = append(tenants, tenant{gid: transport.GroupID(gid), name: w.Name, coord: c})
	}
	fmt.Printf("automon-coordinator: listening on %s for %d groups × %d nodes (ε = %g)\n",
		mc.Addr(), len(tenants), nodes, eps)
	for _, tn := range tenants {
		select {
		case <-tn.coord.Ready():
			fmt.Printf("  group %d (%s): all nodes registered\n", tn.gid, tn.name)
		case <-time.After(5 * time.Minute):
			fail(fmt.Errorf("group %d (%s): nodes never registered", tn.gid, tn.name))
		}
	}

	ticker := time.NewTicker(report)
	defer ticker.Stop()
	for range ticker.C {
		if err := mc.Err(); err != nil {
			fmt.Printf("automon-coordinator: shutting down (%v)\n", err)
			return
		}
		for _, tn := range tenants {
			status := ""
			if tn.coord.Degraded() {
				status = fmt.Sprintf("  DEGRADED: %d/%d nodes live", tn.coord.LiveNodes(), nodes)
			}
			fmt.Printf("group %d (%s): f(x̄) ≈ %.6g  (msgs in/out: %d/%d, frames out: %d)%s\n",
				tn.gid, tn.name, tn.coord.Estimate(),
				tn.coord.Stats.MessagesReceived.Load(), tn.coord.Stats.MessagesSent.Load(),
				tn.coord.Stats.FramesSent.Load(), status)
		}
	}
}

// radiusOptions bundles -adaptive-r and -r-max so both the single-group and
// multi-group paths thread them identically.
type radiusOptions struct {
	adaptive bool
	rMax     float64
}

// workloadConfig builds the core config for one workload, honoring its
// pinned neighborhood size when it has one.
func workloadConfig(w *experiments.Workload, eps, r float64, radius radiusOptions) core.Config {
	cfg := core.Config{
		Epsilon: eps, R: r, Decomp: w.Decomp,
		AdaptiveR: radius.adaptive, RMax: radius.rMax,
	}
	if w.FixedR > 0 {
		cfg.R = w.FixedR
	}
	return cfg
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "automon-coordinator:", err)
	os.Exit(1)
}
