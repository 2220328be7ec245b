package sim

import (
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/obs"
	"automon/internal/stream"
)

// TestSimMetricsMatchResult asserts the Result traffic fields are views over
// the registry counters: a scrape and the returned aggregates cannot differ.
func TestSimMetricsMatchResult(t *testing.T) {
	f := funcs.InnerProduct(4)
	ds := stream.InnerProductPhases(4, 5, 150, 1)
	for _, alg := range []Algorithm{AutoMon, Centralization, Periodic, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			res, err := Run(Config{
				F: f, Data: ds, Algorithm: alg, Period: 10,
				Core:          core.Config{Epsilon: 0.2},
				Metrics:       reg,
				MetricsLabels: `alg="` + alg.String() + `"`,
			})
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			lbl := `{alg="` + alg.String() + `"}`
			if got := snap["automon_sim_messages_total"+lbl]; int(got) != res.Messages {
				t.Fatalf("messages metric %v != result %d", got, res.Messages)
			}
			if got := snap["automon_sim_payload_bytes_total"+lbl]; int(got) != res.PayloadBytes {
				t.Fatalf("payload metric %v != result %d", got, res.PayloadBytes)
			}
			byType := 0
			for typ, n := range res.MessagesByType {
				name := `automon_sim_messages_by_type_total{type="` + typ.String() + `",alg="` + alg.String() + `"}`
				if got := snap[name]; int(got) != n {
					t.Fatalf("%s = %v, result says %d", name, got, n)
				}
				byType += n
			}
			if byType != res.Messages {
				t.Fatalf("per-type sum %d != total %d", byType, res.Messages)
			}
			// The AutoMon-family runs also surface protocol counters.
			if alg == AutoMon || alg == Hybrid {
				if got := snap["automon_coordinator_full_syncs_total"]; int(got) != res.Stats.FullSyncs {
					t.Fatalf("coordinator full syncs metric %v != stats %d", got, res.Stats.FullSyncs)
				}
			}
		})
	}
}

// fakeMsg is a protocol message of a type the counter was never told about.
type fakeMsg struct{}

func (fakeMsg) Type() core.MsgType { return core.MsgType(250) }
func (fakeMsg) Encode() []byte     { return make([]byte, 7) }

// TestCountingCommCountsUnknownMessageTypes guards against the fixed-list
// trap: a message type outside the pre-registered six must still be counted
// (in the Result and, when present, the registry) instead of incrementing a
// nil counter and then zeroing the Result entry.
func TestCountingCommCountsUnknownMessageTypes(t *testing.T) {
	reg := obs.NewRegistry()
	res := &Result{MessagesByType: make(map[core.MsgType]int)}
	comm := newCounter(Config{Metrics: reg}, res)

	comm.count(fakeMsg{})
	comm.count(fakeMsg{})
	if got := res.MessagesByType[core.MsgType(250)]; got != 2 {
		t.Fatalf("unknown-type count = %d, want 2", got)
	}
	if res.Messages != 2 || res.PayloadBytes != 14 {
		t.Fatalf("totals = %d msgs / %d bytes, want 2 / 14", res.Messages, res.PayloadBytes)
	}
	name := `automon_sim_messages_by_type_total{type="` + core.MsgType(250).String() + `"}`
	if got := reg.Snapshot()[name]; int(got) != 2 {
		t.Fatalf("%s = %v, want 2", name, got)
	}
}

// TestTunedRunSharedRegistryCoversFinalRunOnly is the end-to-end regression
// for tuning-replay metric pollution: every replay's coordinator used to
// get-or-create the same automon_coordinator_* counters from the run's
// registry, so Tune bracketed on counts accumulated across replays and the
// final snapshot absorbed every probe's events.
func TestTunedRunSharedRegistryCoversFinalRunOnly(t *testing.T) {
	run := func(reg *obs.Registry) *Result {
		t.Helper()
		res, err := Run(Config{
			F:         funcs.Rosenbrock(),
			Data:      stream.GaussianNoise(2, 4, 260, 0, 0.2, 3),
			Algorithm: AutoMon, TuneRounds: 60,
			Core:    core.Config{Epsilon: 0.4, Decomp: core.DecompOptions{Seed: 1}},
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	reg := obs.NewRegistry()
	shared := run(reg)

	if shared.TunedR != plain.TunedR {
		t.Fatalf("shared registry changed tuning: R %v vs %v", shared.TunedR, plain.TunedR)
	}
	if shared.Stats != plain.Stats {
		t.Fatalf("shared registry changed the final run:\nplain  %+v\nshared %+v", plain.Stats, shared.Stats)
	}
	snap := reg.Snapshot()
	got := int(snap[`automon_coordinator_violations_total{kind="neighborhood"}`]) +
		int(snap[`automon_coordinator_violations_total{kind="safe_zone"}`]) +
		int(snap[`automon_coordinator_violations_total{kind="faulty"}`])
	want := shared.Stats.NeighborhoodViolations + shared.Stats.SafeZoneViolations + shared.Stats.FaultyViolations
	if got != want {
		t.Fatalf("registry holds %d violations, final run produced %d (tuning replays leaked)", got, want)
	}
}
