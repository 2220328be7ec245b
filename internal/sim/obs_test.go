package sim

import (
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/obs"
	"automon/internal/stream"
)

// TestMessagesByTypeSumToMessages asserts that the Result's per-type
// breakdown accounts for every message it counts, for each algorithm's
// counting path (fabric hook and direct baseline counts).
func TestMessagesByTypeSumToMessages(t *testing.T) {
	f := funcs.InnerProduct(4)
	ds := stream.InnerProductPhases(4, 5, 150, 1)
	for _, alg := range []Algorithm{AutoMon, Centralization, Periodic, Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(Config{
				F: f, Data: ds, Algorithm: alg, Period: 10,
				Core: core.Config{Epsilon: 0.2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages == 0 {
				t.Fatal("run sent no messages; the check is vacuous")
			}
			byType := 0
			for _, n := range res.MessagesByType {
				byType += n
			}
			if byType != res.Messages {
				t.Fatalf("per-type sum %d != total %d", byType, res.Messages)
			}
		})
	}
}

// fakeMsg is a protocol message of a type outside core's message types.
type fakeMsg struct{}

func (fakeMsg) Type() core.MsgType { return core.MsgType(250) }
func (fakeMsg) Encode() []byte     { return make([]byte, 7) }

func (fakeMsg) AppendBinary(b []byte) []byte { return append(b, make([]byte, 7)...) }

// TestCountingCommCountsUnknownMessageTypes guards against the fixed-list
// trap: a message type outside the known protocol types must still be
// counted in the Result.
func TestCountingCommCountsUnknownMessageTypes(t *testing.T) {
	res := &Result{MessagesByType: make(map[core.MsgType]int)}
	comm := &counter{res: res}

	comm.count(fakeMsg{})
	comm.count(fakeMsg{})
	if got := res.MessagesByType[core.MsgType(250)]; got != 2 {
		t.Fatalf("unknown-type count = %d, want 2", got)
	}
	if res.Messages != 2 || res.PayloadBytes != 14 {
		t.Fatalf("totals = %d msgs / %d bytes, want 2 / 14", res.Messages, res.PayloadBytes)
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
			Core: core.Config{Epsilon: 0.4, Decomp: core.DecompOptions{Seed: 1}, Metrics: reg},
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
