package main

// layers.go turns a traced run into the per-layer metrics: boundary spans
// and counters from the traced laps, the coordinator's self time from an
// in-process twin of each socket workload, and the layer registry.

import (
	"fmt"
	"time"
)

// twinResult is what the in-process twin of a socket workload measured.
type twinResult struct {
	machine *machineTrace
	initNs  int64 // Init self time (fabric time excluded)
	wallNs  int64
}

// runTwin replays a socket workload's exact input (same seed, same events)
// through the flat coordinator over the bench fabric, one event at a time on
// one goroutine, so every coordinator call can be split into machine self
// time and fabric time. Node-side logic is the same step for step; only the
// sockets are gone.
func runTwin(w *workload, nodes, perNode int, seed int64) (*twinResult, error) {
	in, err := w.gen(nodes, perNode, seed)
	if err != nil {
		return nil, err
	}
	clk := clock{base: time.Now()}
	mt := &machineTrace{}
	sys, err := startProc(in.mon, initialVectors(in), topoFlat, w.elide, clk.now, mt.hook)
	if err != nil {
		return nil, err
	}
	out := &twinResult{machine: mt, initNs: mt.closeInit(sys.initNs)}
	start := clk.now()
	for k := 0; k < perNode; k++ {
		for i, fd := range in.feeders {
			fd.advance(k)
			x := fd.vector()
			var violated bool
			if w.elide {
				violated = sys.offerElided(i, x)
			} else {
				violated = sys.offer(i, x)
			}
			if !violated {
				continue
			}
			t0 := clk.now()
			if _, err := sys.resolve(i, sys.resolutions); err != nil {
				return nil, fmt.Errorf("twin: node %d event %d: %w", i, k, err)
			}
			mt.finish(t0, clk.now())
		}
	}
	out.wallNs = clk.now() - start
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills out.Metrics with every per-layer metric. The first and
// last laps ran untraced (the tracing-overhead reference); the rest were
// traced.
func layerMetrics(cfg runConfig, out *runResult, laps []*lapResult) error {
	w := cfg.w
	refs, traced := []*lapResult{laps[0], laps[len(laps)-1]}, laps[1:len(laps)-1]
	vals := make(map[string]float64, len(perLayer))

	// Pool the traced laps.
	var sum, cnt [nSpanKinds]int64
	var durs [nSpanKinds][]int64
	var driverWall, wallNs, events int64
	var pre, turn, post, pulls, resolve, registerNs, initNs, resyncNs []int64
	var tracedEps []float64
	var traffic wireStats
	var flt faults
	var proto protoStats
	var elided int64
	mt := &machineTrace{}
	var kept []span
	for _, lap := range traced {
		for _, sh := range lap.shards {
			for k := spanKind(0); k < nSpanKinds; k++ {
				sum[k] += sh.sum[k]
				cnt[k] += sh.cnt[k]
				durs[k] = append(durs[k], sh.durs[k]...)
			}
			kept = append(kept, sh.spans...)
		}
		for _, dw := range lap.driverWall {
			driverWall += dw
		}
		wallNs += lap.wallNs
		events += lap.events
		pre, turn, post = append(pre, lap.pre...), append(turn, lap.turn...), append(post, lap.post...)
		pulls = append(pulls, lap.pullService...)
		resolve = append(resolve, lap.resolve...)
		registerNs = append(registerNs, lap.registerNs)
		initNs = append(initNs, lap.initNs)
		resyncNs = append(resyncNs, lap.resyncNs...)
		tracedEps = append(tracedEps, ratio(float64(lap.events), float64(lap.wallNs)/1e9))
		traffic = traffic.add(lap.traffic)
		flt.Shed += lap.faults.Shed
		flt.DeadlineHits += lap.faults.DeadlineHits
		flt.Reconnects += lap.faults.Reconnects
		proto = proto.add(lap.proto)
		elided += lap.elided
		if lap.machine != nil {
			mt.merge(lap.machine)
		}
	}
	nLaps := float64(len(traced))
	ev := float64(events)

	// Driver-path spans (T).
	vals["sketch.apply_ns"] = medianNs(durs[spApply])
	vals["ingest.vector_into_ns"] = medianNs(durs[spVector])
	vals["core.node.update_fast_ns"] = medianNs(durs[spFast])
	if !w.sock {
		vals["core.node.update_fast_ns"] = medianNs(durs[spOffer])
	}
	vals["core.node.elided_share"] = ratio(float64(elided), ev)

	// Socket boundary (T).
	vals["transport.node_pre_us"] = medianNs(pre) / 1e3
	vals["transport.turnaround_us"] = medianNs(turn) / 1e3
	vals["transport.node_post_us"] = medianNs(post) / 1e3
	vals["transport.pull_service_us"] = medianNs(pulls) / 1e3
	vals["transport.frames_per_msg"] = ratio(float64(traffic.frames()), float64(traffic.msgs()))
	vals["transport.batch_overhead_share"] = ratio(float64(traffic.batch()), float64(traffic.wire()))
	vals["transport.coord_sent_bytes_per_event"] = ratio(float64(traffic.WireSent), ev)
	vals["transport.coord_recv_bytes_per_event"] = ratio(float64(traffic.WireRecv), ev)
	if w.sock {
		vals["transport.register_ms"] = medianNs(registerNs) / 1e6
	}
	vals["transport.shed_violations"] = float64(flt.Shed)
	vals["transport.deadline_hits"] = float64(flt.DeadlineHits)
	vals["transport.reconnects"] = float64(flt.Reconnects)
	vals["transport.blocked_wall_share"] = ratio(float64(sum[spBlocked]), float64(driverWall))

	// The coordinator machine (T): from the fleet's own fabric, or from the
	// socket workload's in-process twin.
	machineWall := float64(wallNs)
	var zoneBuildMean float64
	if w.sock {
		nodes, perNode := w.sized(cfg.scale)
		twin, err := runTwin(w, nodes, perNode, cfg.seed)
		if err != nil {
			return fmt.Errorf("twin: %w", err)
		}
		mt = twin.machine
		machineWall = float64(twin.wallNs)
		vals["core.machine.init_ms"] = float64(twin.initNs) / 1e6
	} else {
		vals["core.machine.init_ms"] = float64(mt.initSelfNs) / nLaps / 1e6
	}
	vals["core.machine.lazy_us"] = medianNs(mt.lazy) / 1e3
	vals["core.machine.full_us"] = medianNs(mt.full) / 1e3
	vals["core.machine.collect_us"] = medianNs(mt.collect) / 1e3
	vals["core.machine.zone_build_us"] = medianNs(mt.zoneBuild) / 1e3
	vals["core.machine.distribute_us"] = medianNs(mt.distNs) / 1e3
	vals["core.machine.pulls_per_violation"] = ratio(float64(mt.pulls), float64(mt.violations))
	vals["core.machine.self_wall_share"] = ratio(float64(mt.violationSelfNs), machineWall)
	if len(mt.zoneBuild) > 0 {
		zoneBuildMean = float64(sumNs(mt.zoneBuild)) / float64(len(mt.zoneBuild))
	}
	// Counts come from the measured system itself, per lap.
	vals["core.machine.full_syncs"] = float64(proto.FullSyncs) / nLaps
	vals["core.machine.lazy_attempts"] = float64(proto.LazyAttempts) / nLaps
	vals["core.machine.lazy_success_share"] = ratio(float64(proto.LazyResolved), float64(proto.LazyAttempts))
	vals["core.machine.neighborhood_violations"] = float64(proto.Neighborhood) / nLaps
	vals["core.machine.zone_build_wall_share"] = ratio(zoneBuildMean*float64(proto.FullSyncs), float64(wallNs))
	vals["core.zone.eigensolves_per_build"] = ratio(float64(proto.Eigensolves), float64(proto.XBuilds))

	// Flat against tree (T, fleets only).
	if !w.sock {
		prefix := "core.flat."
		if w.topo == topoTree64 {
			prefix = "shard.tree."
		}
		vals[prefix+"handle_violation_us"] = medianNs(mt.hv) / 1e3
		vals[prefix+"full_sync_ms"] = medianNs(resyncNs) / 1e6
		vals[prefix+"init_ms"] = medianNs(initNs) / 1e6
	}

	// Harness qualifiers (T).
	sorted := sortedCopy(resolve)
	topQ, top := topSupported(sorted)
	vals["resolve.samples"] = float64(len(sorted))
	vals["resolve.p99_ms"] = quantile(sorted, 0.99) / 1e6
	vals["resolve.top_supported_ms"] = top / 1e6
	// Attribution. The driver spans tile each driver's wall time, but two of
	// them are waits, not work: a blocked update call and the fleet's resolve
	// phase. A wait is accounted only as far as the work it waited for was
	// measured: node-side time before the first write and after the last read,
	// the machine's self time for the violations handled (the twin's mean, as
	// the socket run cannot see inside its coordinator), pull service at the
	// bystanders, and on a fleet the coordinator calls themselves. The rest of
	// a wait has no name in this benchmark.
	named := sum[spGen] + sum[spApply] + sum[spVector] + sum[spFast] + sum[spOffer] + sum[spBarrier]
	var wait int64
	var gap string
	if w.sock {
		handled := float64(proto.Neighborhood + proto.SafeZone + proto.Faulty)
		machineSelf := int64(ratio(float64(mt.violationSelfNs), float64(mt.violations)) * handled)
		named += sumNs(pre) + sumNs(post) + machineSelf + sumNs(pulls)
		wait = sum[spBlocked]
		gap = "transport.turnaround beyond machine self time and pull service: coordinator-side socket reads and writes, dispatch queue, flush timer, loopback, goroutine wake-ups, and waiting behind the other driver's violation"
	} else {
		named += sumNs(mt.hv)
		wait = sum[spResolve]
		gap = "core.machine.resolve outside HandleViolation: rechecks of queued violations that an earlier resolution had already cured"
	}
	unaccounted := 1 - ratio(float64(named), float64(driverWall))
	vals["attrib.unaccounted_share"] = unaccounted
	vals["gen.share"] = ratio(float64(sum[spGen]), float64(driverWall))
	var refEps float64
	for _, ref := range refs {
		refEps += ratio(float64(ref.events), float64(ref.wallNs)/1e9) / float64(len(refs))
	}
	vals["trace.overhead_share"] = 1 - ratio(medianF(tracedEps), refEps)

	// Layer registry (R).
	reg, err := runRegistry(cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	for name, v := range reg {
		vals[name] = v
	}

	for _, d := range perLayer {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("traced laps: %d; waits are %.1f%% of driver time, %.1f%% of driver time is unaccounted; largest unnamed gap: %s",
			len(traced), 100*ratio(float64(wait), float64(driverWall)), 100*unaccounted, gap),
		fmt.Sprintf("resolve: top supported percentile p%.2f over %d samples", 100*topQ, len(sorted)))

	totals := make(map[string]spanSum, nSpanKinds)
	for k := spanKind(0); k < nSpanKinds; k++ {
		if cnt[k] > 0 {
			totals[spanNames[k]] = spanSum{Count: cnt[k], TotalNs: sum[k]}
		}
	}
	if len(kept) > 4*spanCap {
		kept = kept[:4*spanCap]
	}
	return writeTrace(cfg.outDir, &traceFile{Workload: w.name, Seed: cfg.seed, Totals: totals, Spans: kept})
}
