// WAN deployment: run a real coordinator and ten real nodes over TCP
// sockets with injected wide-area latency (28 ms one-way ≈ the paper's
// us-west-2 ↔ us-east-2 RTT of 56 ms), monitoring the inner product of
// drifting vector streams. This is the §4.7 validation in miniature: the
// exact same protocol bytes that the simulator counts flow over real
// connections. Run with:
//
//	go run ./examples/wan
//
// Pass -chaos-seed to run the same deployment over a deliberately faulty
// network (injected delays, duplicated frames, and hard disconnects): nodes
// drop off and rejoin mid-stream, and the run still finishes with a valid
// estimate — the transport's fault tolerance at work.
package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"automon/internal/core"
	"automon/internal/experiments"
	"automon/internal/linalg"
	"automon/internal/obs"
	"automon/internal/transport"
	"automon/internal/transport/chaos"
)

func main() {
	rounds := flag.Int("rounds", 350, "data rounds to stream per node")
	latency := flag.Duration("latency", 28*time.Millisecond, "injected one-way latency")
	chaosSeed := flag.Int64("chaos-seed", 0, "when non-zero, inject connection faults from this seed")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address, e.g. 127.0.0.1:7800 (empty = disabled); scrape /metrics mid-run")
	flag.Parse()

	o := experiments.Options{Quick: true, Seed: 5}
	w := experiments.InnerProductWorkload(o, 40, 10)
	ds := w.Data
	const eps = 0.2
	if *rounds > ds.Rounds {
		fmt.Printf("clamping -rounds %d to the dataset's %d monitored rounds\n", *rounds, ds.Rounds)
		*rounds = ds.Rounds
	}

	opts := transport.Options{Latency: *latency}
	if *obsAddr != "" {
		// One registry and tracer cover the whole in-process deployment: the
		// coordinator side and all ten node clients register under distinct
		// label sets, so a single /metrics scrape shows the full cluster.
		opts.Metrics = obs.NewRegistry()
		opts.Tracer = obs.NewTracer(4096)
		srv, err := obs.Serve(*obsAddr, opts.Metrics, opts.Tracer)
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		fmt.Printf("observability: curl http://%s/metrics (also /debug/vars, /debug/events, /debug/pprof)\n", srv.Addr)
	}
	var dialer *chaos.Dialer
	if *chaosSeed != 0 {
		dialer = chaos.NewDialer(chaos.Config{
			Seed:     *chaosSeed,
			MaxDelay: 2 * time.Millisecond,
			Write:    chaos.FaultRates{Delay: 0.05, Duplicate: 0.02, Disconnect: 0.01},
			Read:     chaos.FaultRates{Delay: 0.05, Disconnect: 0.01},
		})
		dialer.SetEnabled(false) // bring the cluster up clean, then misbehave
		opts.Dial = dialer.Dial
		opts.ReconnectBase = 10 * time.Millisecond
		opts.MaxReconnectAttempts = 20
		opts.RequestTimeout = 5 * time.Second
		opts.ResolveTimeout = 5 * time.Second
	}

	coord, err := transport.ListenCoordinator("127.0.0.1:0", w.F, ds.Nodes,
		core.Config{Epsilon: eps}, opts)
	if err != nil {
		panic(err)
	}
	defer coord.Close()
	fmt.Printf("coordinator listening on %s (one-way latency %v)\n", coord.Addr(), *latency)

	// Prepare each node's window and dial in.
	windows := ds.FilledWindows()
	nodes := make([]*transport.NodeClient, ds.Nodes)
	for i := range nodes {
		nodes[i], err = transport.DialNode(coord.Addr(), i, w.F, linalg.Clone(windows[i].Vector()), opts)
		if err != nil {
			panic(err)
		}
		defer nodes[i].Close()
	}
	<-coord.Ready()
	for _, n := range nodes {
		if err := n.WaitReady(time.Minute); err != nil {
			panic(err)
		}
	}
	fmt.Printf("%d nodes registered; initial estimate f(x̄) = %.4f\n\n", ds.Nodes, coord.Estimate())
	if dialer != nil {
		dialer.SetEnabled(true)
		fmt.Printf("chaos enabled (seed %d): injecting delays, duplicates, disconnects\n\n", *chaosSeed)
	}

	// Stream a slice of the dataset concurrently from every node.
	start := time.Now()
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < *rounds; r++ {
				if s := ds.Sample(r, i); s != nil {
					windows[i].Push(s)
					if err := nodes[i].Update(windows[i].Vector()); err != nil {
						if perm := nodes[i].Err(); perm != nil {
							panic(perm)
						}
						// Transient: a fault stalled this resolution; the
						// reconnect loop repairs the connection underneath.
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if err := coord.Err(); err != nil {
		panic(err)
	}

	elapsed := time.Since(start)
	sent := coord.Stats.MessagesSent.Load()
	recv := coord.Stats.MessagesReceived.Load()
	payload := coord.Stats.PayloadSent.Load() + coord.Stats.PayloadReceived.Load()
	wire := coord.Stats.WireSent.Load() + coord.Stats.WireReceived.Load()
	centralPayload := int64(*rounds*ds.Nodes) * int64(8*w.F.Dim()+7)

	fmt.Printf("streamed %d rounds × %d nodes in %v\n", *rounds, ds.Nodes, elapsed.Round(time.Millisecond))
	fmt.Printf("estimate f(x̄) = %.4f\n", coord.Estimate())
	fmt.Printf("messages: %d received + %d sent = %d total (centralization: %d)\n",
		recv, sent, recv+sent, *rounds*ds.Nodes)
	fmt.Printf("payload:  %d bytes (centralization payload: %d bytes)\n", payload, centralPayload)
	fmt.Printf("traffic:  %d bytes including frame + TCP/IP overhead\n", wire)
	stats := coord.CoordStats()
	fmt.Printf("protocol: %d full syncs, %d lazy-resolved of %d safe-zone violations\n",
		stats.FullSyncs, stats.LazyResolved, stats.SafeZoneViolations)
	if dialer != nil {
		var reconnects int64
		for _, n := range nodes {
			reconnects += n.Reconnects()
		}
		fmt.Printf("faults:   %d injected (%d disconnects); %d node rejoins, %d deaths observed; degraded now: %v\n",
			dialer.Stats.Total(), dialer.Stats.Disconnects.Load(),
			reconnects, stats.NodeDeaths, coord.Degraded())
	}
}
