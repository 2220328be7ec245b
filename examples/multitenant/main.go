// Multi-tenant deployment: one coordinator process hosts three independent
// monitoring groups — three different functions over three different node
// fleets — behind a single TCP listener, with outbound frame batching
// enabled. Each group's nodes register with their group id, every frame
// carries it, and the shared metrics registry keeps every group's counters
// apart under group labels.
// Run with:
//
//	go run ./examples/multitenant
package main

import (
	"flag"
	"fmt"
	"math"
	"sync"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/obs"
	"automon/internal/transport"
)

// tenant is one monitoring group: a function, its fleet, and a
// deterministic drift schedule (round 0 is the initial vector).
type tenant struct {
	gid   transport.GroupID
	name  string
	f     *core.Function
	eps   float64
	nodes int
	gen   func(round, node int) []float64

	coord   *transport.Coordinator
	clients []*transport.NodeClient
	vecs    [][]float64 // oracle copy of every node's current vector
}

func main() {
	rounds := flag.Int("rounds", 60, "data rounds to stream per node")
	batchBytes := flag.Int("batch-bytes", 4096, "flush a batch frame at this body size")
	batchDelay := flag.Duration("batch-delay", time.Millisecond, "flush a batch frame after this delay")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address (empty = disabled); /metrics shows all groups under group labels")
	flag.Parse()

	tenants := []*tenant{
		{gid: 0, name: "inner-product", f: funcs.InnerProduct(2), eps: 0.2, nodes: 3,
			gen: func(r, i int) []float64 {
				u := 0.5 + 0.02*float64(r) + 0.03*float64(i)
				return []float64{u, u, 1, 1}
			}},
		{gid: 1, name: "variance", f: funcs.Variance(), eps: 0.2, nodes: 3,
			gen: func(r, i int) []float64 {
				return funcs.AugmentSquares(1 + 0.05*float64(r) + 0.4*float64(i))
			}},
		{gid: 2, name: "sqnorm", f: funcs.SqNorm(3), eps: 0.3, nodes: 2,
			gen: func(r, i int) []float64 {
				v := 0.4 + 0.02*float64(r) + 0.05*float64(i)
				return []float64{v, v, v}
			}},
	}

	opts := transport.Options{
		Batch: transport.BatchOptions{MaxBytes: *batchBytes, MaxDelay: *batchDelay},
	}
	opts.Metrics = obs.NewRegistry()
	if *obsAddr != "" {
		opts.Tracer = obs.NewTracer(4096)
		srv, err := obs.Serve(*obsAddr, opts.Metrics, opts.Tracer)
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		fmt.Printf("observability: curl http://%s/metrics — every series carries its group label\n", srv.Addr)
	}

	mc, err := transport.ListenMulti("127.0.0.1:0", opts)
	if err != nil {
		panic(err)
	}
	defer mc.Close()
	fmt.Printf("multitenant coordinator on %s hosting %d groups (batch ≤ %d B / %v)\n",
		mc.Addr(), len(tenants), *batchBytes, *batchDelay)

	for _, tn := range tenants {
		tn.coord, err = mc.AddGroup(tn.gid, tn.f, tn.nodes, core.Config{Epsilon: tn.eps})
		if err != nil {
			panic(err)
		}
		nodeOpts := opts
		nodeOpts.Group = tn.gid
		for i := 0; i < tn.nodes; i++ {
			x := tn.gen(0, i)
			tn.vecs = append(tn.vecs, linalg.Clone(x))
			nd, err := transport.DialNode(mc.Addr(), i, tn.f, x, nodeOpts)
			if err != nil {
				panic(err)
			}
			tn.clients = append(tn.clients, nd)
		}
	}
	for _, tn := range tenants {
		<-tn.coord.Ready()
		for _, nd := range tn.clients {
			if err := nd.WaitReady(time.Minute); err != nil {
				panic(err)
			}
		}
		fmt.Printf("  group %d (%s): %d nodes registered, f(x̄) = %.4g\n",
			tn.gid, tn.name, tn.nodes, tn.coord.Estimate())
	}

	// Every group streams concurrently — the listener, accept loop, and
	// registry are shared; the protocol instances are not.
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			for r := 1; r <= *rounds; r++ {
				for i, nd := range tn.clients {
					x := tn.gen(r, i)
					if err := nd.Update(x); err != nil {
						panic(fmt.Sprintf("group %d node %d: %v", tn.gid, i, err))
					}
					copy(tn.vecs[i], x)
				}
			}
		}(tn)
	}
	wg.Wait()

	// Let trailing resolutions and batched frames land before the summary.
	time.Sleep(250 * time.Millisecond)
	fmt.Println()
	for _, tn := range tenants {
		avg := make([]float64, tn.f.Dim())
		linalg.Mean(avg, tn.vecs...)
		truth := tn.f.Value(avg)
		est := tn.coord.Estimate()
		sent := tn.coord.Stats.MessagesSent.Load()
		frames := tn.coord.Stats.FramesSent.Load()
		saved := tn.coord.Stats.BatchOverheadSent.Load()
		fmt.Printf("group %d (%s): estimate %.4g vs truth %.4g (|err| %.3g ≤ ε %.3g: %v)\n",
			tn.gid, tn.name, est, truth, math.Abs(est-truth), tn.eps, math.Abs(est-truth) <= tn.eps+1e-9)
		fmt.Printf("  coordinator sent %d messages in %d frames (%d batch-header bytes); received %d messages\n",
			sent, frames, saved, tn.coord.Stats.MessagesReceived.Load())
	}
	if rej := mc.RejectedRegistrations(); rej != 0 {
		fmt.Printf("rejected registrations: %d\n", rej)
	}
	for _, tn := range tenants {
		for _, nd := range tn.clients {
			nd.Close()
		}
	}
}
