package experiments

import (
	"fmt"
	"math"
	"time"

	"automon/internal/core"
	"automon/internal/linalg"
	"automon/internal/sim"
	"automon/internal/transport"
)

// wanRun drives one workload over the real TCP fabric (loopback, optional
// injected latency) and reports payload, wire traffic, message counts, and
// the maximum estimate error. Centralization payload/traffic is derived from
// the same message schema for the comparison lines.
func wanRun(w *Workload, eps float64, latency time.Duration) (payload, wire, messages int64, maxErr float64, err error) {
	ds := w.Data
	n := ds.Nodes

	windows := ds.FilledWindows()

	cfg := core.Config{Epsilon: eps, R: w.FixedR, Decomp: w.Decomp}
	if cfg.R == 0 && !w.F.HasConstantHessian() {
		cfg.R = 1 // WAN validation uses a fixed neighborhood; see EXPERIMENTS.md
	}
	coord, err := transport.ListenCoordinator("127.0.0.1:0", w.F, n, cfg, transport.Options{Latency: latency})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer coord.Close()
	nodes := make([]*transport.NodeClient, n)
	for i := 0; i < n; i++ {
		nodes[i], err = transport.DialNode(coord.Addr(), i, w.F, linalg.Clone(windows[i].Vector()), transport.Options{Latency: latency})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer nodes[i].Close()
	}
	select {
	case <-coord.Ready():
	case <-time.After(30 * time.Second):
		return 0, 0, 0, 0, fmt.Errorf("experiments: coordinator never ready")
	}
	for i := range nodes {
		if err := nodes[i].WaitReady(30 * time.Second); err != nil {
			return 0, 0, 0, 0, err
		}
	}

	avg := make([]float64, w.F.Dim())
	for r := 0; r < ds.Rounds; r++ {
		for i := 0; i < n; i++ {
			s := ds.Sample(r, i)
			if s == nil {
				continue
			}
			windows[i].Push(s)
			if err := nodes[i].Update(windows[i].Vector()); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = windows[i].Vector()
		}
		linalg.Mean(avg, vecs...)
		if e := math.Abs(coord.Estimate() - w.F.Value(avg)); e > maxErr {
			maxErr = e
		}
	}
	if err := coord.Err(); err != nil {
		return 0, 0, 0, 0, err
	}

	payload = coord.Stats.PayloadSent.Load() + coord.Stats.PayloadReceived.Load()
	wire = coord.Stats.WireSent.Load() + coord.Stats.WireReceived.Load()
	messages = coord.Stats.MessagesSent.Load() + coord.Stats.MessagesReceived.Load()
	return payload, wire, messages, maxErr, nil
}

// Fig10Bandwidth reproduces Figure 10 and the §4.7 WAN validation: for each
// function and ε, AutoMon's payload and wire traffic over real sockets,
// alongside centralization's payload/traffic and the matching simulation
// message count (to validate that real-world communication matches the
// simulation).
func Fig10Bandwidth(o Options, latency time.Duration) (*Table, error) {
	t := &Table{
		Name: "fig10: WAN bandwidth validation",
		Header: []string{"function", "eps", "wan_messages", "sim_messages",
			"payload_bytes", "wire_bytes", "central_payload", "central_wire", "max_err"},
	}
	type entry struct {
		w    *Workload
		epss []float64
	}
	dnn, err := DNNWorkload(o)
	if err != nil {
		return nil, err
	}
	entries := []entry{
		{InnerProductWorkload(o, 40, 10), []float64{0.05, 0.1, 0.2, 0.8}},
		{QuadraticWorkload(o, 40, 10), []float64{0.03, 0.04, 0.08, 0.2}},
		{KLDWorkload(o, 20, 12, 2000), []float64{0.005, 0.01, 0.02, 0.08}},
		{dnn, []float64{0.002, 0.005, 0.007, 0.016}},
	}
	for _, e := range entries {
		// KLD tuning over sockets is pointless here; use a fixed r.
		e.w.TuneRounds = 0
		for _, eps := range e.epss {
			payload, wire, msgs, maxErr, err := wanRun(e.w, eps, latency)
			if err != nil {
				return nil, fmt.Errorf("%s eps=%v: %w", e.w.Name, eps, err)
			}
			simCfg := *e.w
			simCfg.FixedR = e.w.FixedR
			if simCfg.FixedR == 0 && !e.w.F.HasConstantHessian() {
				simCfg.FixedR = 1
			}
			simRes, err := simCfg.run(sim.AutoMon, eps, 0, false)
			if err != nil {
				return nil, err
			}
			centralRes, err := e.w.run(sim.Centralization, eps, 0, false)
			if err != nil {
				return nil, err
			}
			centralWire := int64(centralRes.PayloadBytes) + int64(centralRes.Messages)*70
			t.Add(e.w.Name, eps, int(msgs), simRes.Messages,
				int(payload), int(wire), centralRes.PayloadBytes, int(centralWire), maxErr)
		}
	}
	return t, nil
}
