// automon-sim runs a single monitoring experiment in the discrete-event
// simulator and prints a summary: message counts by type, payload bytes, and
// the approximation-error profile.
//
// Usage:
//
//	automon-sim -func kld -eps 0.02
//	automon-sim -func inner-product -algo periodic -period 10
//	automon-sim -func dnn -eps 0.005 -full
package main

import (
	"flag"
	"fmt"
	"os"

	"automon/internal/core"
	"automon/internal/experiments"
	"automon/internal/shard"
	"automon/internal/sim"
)

func main() {
	fn := flag.String("func", "inner-product", "workload: inner-product[-d], quadratic[-d], kld[-d], mlp-d, dnn, rosenbrock, intrusion-entropy, regime-rosenbrock")
	algo := flag.String("algo", "automon", "algorithm: automon, centralization, periodic, hybrid, no-adcd")
	eps := flag.Float64("eps", 0.1, "approximation error bound ε")
	period := flag.Int("period", 10, "period for the periodic baseline")
	r := flag.Float64("r", 0, "fixed ADCD-X neighborhood size (0 = tune)")
	full := flag.Bool("full", false, "full-size parameters")
	seed := flag.Int64("seed", 1, "master seed")
	adaptiveR := flag.Bool("adaptive-r", false, "enable the drift-aware radius controller (re-tunes r online, shrinking as well as growing)")
	rMax := flag.Float64("r-max", 0, "cap on §3.6 radius doubling (0 = derive from the domain or tuned r, negative = uncapped)")
	shards := flag.Int("shards", 0, "run through a hierarchical sharded coordinator with this many leaf shards (0 = flat; routing mode is bit-identical to flat)")
	treeFanout := flag.Int("tree-fanout", 0, "children per interior shard tier (0 = default 8; needs -shards)")
	shardAbsorb := flag.Bool("shard-absorb", false, "let leaf shards absorb safe-zone violations locally (ε-correct, not bit-identical; needs -shards)")
	flag.Parse()

	o := experiments.Options{Quick: !*full, Seed: *seed}
	w, err := experiments.NamedWorkload(*fn, o)
	if err != nil {
		fail(err)
	}

	cfg := sim.Config{
		F:    w.F,
		Data: w.Data,
		Core: core.Config{
			Epsilon: *eps, R: w.FixedR, Decomp: w.Decomp,
			AdaptiveR: *adaptiveR, RMax: *rMax,
		},
		TuneRounds:  w.TuneRounds,
		Shards:      *shards,
		TreeFanout:  *treeFanout,
		ShardAbsorb: *shardAbsorb,
	}
	if (*treeFanout != 0 || *shardAbsorb) && *shards <= 0 {
		fail(fmt.Errorf("-tree-fanout and -shard-absorb require -shards"))
	}
	if *r > 0 {
		cfg.Core.R = *r
		cfg.TuneRounds = 0
	}
	switch *algo {
	case "automon":
		cfg.Algorithm = sim.AutoMon
	case "centralization":
		cfg.Algorithm = sim.Centralization
	case "periodic":
		cfg.Algorithm = sim.Periodic
		cfg.Period = *period
	case "hybrid":
		cfg.Algorithm = sim.Hybrid
	case "no-adcd":
		cfg.Algorithm = sim.AutoMon
		cfg.Core.DisableADCD = true
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload:        %s (d=%d, n=%d, %d monitored rounds)\n", w.Name, w.F.Dim(), w.Data.Nodes, res.Rounds)
	fmt.Printf("algorithm:       %s\n", res.Algorithm)
	if *shards > 0 {
		fanout := *treeFanout
		if fanout == 0 {
			fanout = shard.DefaultFanout
		}
		mode := shard.ModeRoute
		if *shardAbsorb {
			mode = shard.ModeAbsorb
		}
		fmt.Printf("topology:        %d leaf shards, fan-out %d, %s mode\n", *shards, fanout, mode)
	}
	fmt.Printf("messages:        %d (payload %d bytes)\n", res.Messages, res.PayloadBytes)
	for t, c := range res.MessagesByType {
		fmt.Printf("  %-14s %d\n", t.String()+":", c)
	}
	fmt.Printf("error:           max %.6g  p99 %.6g  mean %.6g (ε = %g)\n", res.MaxErr, res.P99Err, res.MeanErr, *eps)
	fmt.Printf("rounds over ε:   %d of %d\n", res.MissedRounds, res.Rounds)
	if cfg.Algorithm == sim.AutoMon {
		fmt.Printf("full syncs:      %d   lazy resolved: %d of %d attempts\n",
			res.Stats.FullSyncs, res.Stats.LazyResolved, res.Stats.LazyAttempts)
		fmt.Printf("violations:      %d neighborhood, %d safe-zone, %d faulty\n",
			res.Stats.NeighborhoodViolations, res.Stats.SafeZoneViolations, res.Stats.FaultyViolations)
		if res.TunedR > 0 {
			note := ""
			if res.TuneUnconverged {
				note = "; tuning bracket did not converge, r is the best grid point"
			}
			fmt.Printf("neighborhood r:  %.6g (final %.6g%s)\n", res.TunedR, res.FinalR, note)
		}
		if res.Stats.RDoublings+res.Stats.RSaturations > 0 || *adaptiveR {
			fmt.Printf("radius events:   %d doublings, %d saturations, %d shrinks, %d grows, %d retunes\n",
				res.Stats.RDoublings, res.Stats.RSaturations,
				res.Stats.RShrinks, res.Stats.RGrows, res.Stats.AdaptiveRetunes)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "automon-sim:", err)
	os.Exit(1)
}
