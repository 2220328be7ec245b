package experiments

import (
	"automon/internal/baselines"
	"automon/internal/core"
	"automon/internal/sim"
)

// tradeoffPoint is one (messages, max error) point of a Figure 5 curve.
func addTradeoffRow(t *Table, fn, algo string, knob float64, res *sim.Result) {
	t.Add(fn, algo, knob, res.Messages, res.MaxErr, res.P99Err, res.PayloadBytes)
}

var tradeoffHeader = []string{"function", "algorithm", "eps_or_period", "messages", "max_err", "p99_err", "payload_bytes"}

// Fig5Tradeoff reproduces Figure 5: the error–communication tradeoff of
// AutoMon vs CB (inner product only), Periodic and Centralization on the
// four evaluation functions. Each row is one monitoring run.
func Fig5Tradeoff(o Options) (*Table, error) {
	t := &Table{Name: "fig5: error-communication tradeoff", Header: tradeoffHeader}

	periods := []int{1, 2, 5, 10, 25, 50, 100}

	runFamily := func(w *Workload, epss []float64, withCB bool) error {
		for _, eps := range epss {
			res, err := w.run(sim.AutoMon, eps, 0, core.Config{})
			if err != nil {
				return err
			}
			addTradeoffRow(t, w.Name, "automon", eps, res)
		}
		if withCB {
			half := w.F.Dim() / 2
			for _, eps := range epss {
				res, err := sim.Run(sim.Config{
					F: w.F, Data: w.Data, Algorithm: sim.AutoMon,
					Core: core.Config{Epsilon: eps, ZoneBuilder: baselines.ConvexBoundInnerProduct(half)},
				})
				if err != nil {
					return err
				}
				addTradeoffRow(t, w.Name, "cb", eps, res)
			}
		}
		// Periodic measures error against the middle ε for missed-round
		// accounting; its curve is period-driven.
		midEps := epss[len(epss)/2]
		for _, p := range periods {
			res, err := w.run(sim.Periodic, midEps, p, core.Config{})
			if err != nil {
				return err
			}
			addTradeoffRow(t, w.Name, "periodic", float64(p), res)
		}
		res, err := w.run(sim.Centralization, midEps, 0, core.Config{})
		if err != nil {
			return err
		}
		addTradeoffRow(t, w.Name, "centralization", 0, res)
		return nil
	}

	if err := runFamily(InnerProductWorkload(o, 40, 10),
		[]float64{0.05, 0.1, 0.2, 0.4, 0.8}, true); err != nil {
		return nil, err
	}
	if err := runFamily(QuadraticWorkload(o, 40, 10),
		[]float64{0.02, 0.03, 0.05, 0.1, 0.2}, false); err != nil {
		return nil, err
	}
	if err := runFamily(KLDWorkload(o, 20, 12, 4000),
		[]float64{0.005, 0.01, 0.02, 0.04, 0.08}, false); err != nil {
		return nil, err
	}
	dnn, err := DNNWorkload(o)
	if err != nil {
		return nil, err
	}
	if err := runFamily(dnn, []float64{0.002, 0.005, 0.01, 0.02, 0.04}, false); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig6ErrorProfile reproduces Figure 6: AutoMon's max and 99th-percentile
// error as a percentage of the requested bound ε for KLD (guaranteed) and
// the intrusion DNN (no guarantee).
func Fig6ErrorProfile(o Options) (*Table, error) {
	t := &Table{
		Name:   "fig6: error relative to bound",
		Header: []string{"function", "eps", "messages", "max_pct_of_bound", "p99_pct_of_bound", "central_messages"},
	}
	add := func(w *Workload, epss []float64) error {
		central, err := w.run(sim.Centralization, epss[0], 0, core.Config{})
		if err != nil {
			return err
		}
		for _, eps := range epss {
			res, err := w.run(sim.AutoMon, eps, 0, core.Config{})
			if err != nil {
				return err
			}
			t.Add(w.Name, eps, res.Messages, 100*res.MaxErr/eps, 100*res.P99Err/eps, central.Messages)
		}
		return nil
	}
	if err := add(KLDWorkload(o, 20, 12, 4000), []float64{0.005, 0.01, 0.02, 0.04, 0.08}); err != nil {
		return nil, err
	}
	dnn, err := DNNWorkload(o)
	if err != nil {
		return nil, err
	}
	if err := add(dnn, []float64{0.002, 0.005, 0.01, 0.02, 0.04}); err != nil {
		return nil, err
	}
	return t, nil
}
