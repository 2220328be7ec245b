package ingest

import (
	"math"
	"reflect"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/sketch"
)

// decodeUpdates turns fuzz bytes into a finite adversarial event stream:
// every 3 bytes give (item, signed mantissa, signed exponent), producing
// deltas spanning ±mantissa·10^[−4, +4] — magnitudes the budget accounting
// must survive without ever missing a violation.
func decodeUpdates(data []byte) []sketch.Update {
	n := len(data) / 3
	if n > 4096 {
		n = 4096
	}
	evs := make([]sketch.Update, 0, n)
	for i := 0; i < n; i++ {
		item := uint64(data[3*i])
		mant := float64(int8(data[3*i+1]))
		exp := int(int8(data[3*i+2])) % 5 // [-128,127]%5 ∈ [-4,4]
		delta := mant * math.Pow(10, float64(exp))
		evs = append(evs, sketch.Update{Item: item, Delta: delta})
	}
	return evs
}

// FuzzElisionBudget replays an adversarial event stream through the elided
// and per-event node paths and demands identical violation logs — the "no
// missed violations, ever" property, with the fuzzer hunting for magnitude
// patterns that break the budget accounting.
func FuzzElisionBudget(f *testing.F) {
	f.Add([]byte{1, 10, 0, 2, 246, 1, 3, 100, 254})
	f.Add([]byte{0, 1, 4, 0, 255, 4, 7, 127, 3, 7, 129, 3})
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 200; i++ {
			b = append(b, byte(i%11), byte(1+i%3), byte(i%9))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeUpdates(data)
		if len(evs) == 0 {
			return
		}
		run := func(elide bool) ([]LogEntry, error) {
			// Two nodes: node 0 takes the fuzz stream, node 1 a fixed one.
			q := funcs.AMSF2(2, 8)
			mk := func() *AMSSource {
				s, err := NewAMSSource(2, 8, 3, 1.0/16)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 50; i++ {
					s.Apply(sketch.Update{Item: uint64(i % 11), Delta: 1})
				}
				return s
			}
			p, err := NewPipeline(Config{
				F:       q,
				Core:    core.Config{Epsilon: 0.1},
				Sources: []*AMSSource{mk(), mk()},
				Options: Options{Elide: elide},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Init(); err != nil {
				t.Fatal(err)
			}
			for k, u := range evs {
				if err := p.Ingest(0, u); err != nil {
					return p.Log, err
				}
				if err := p.Ingest(1, sketch.Update{Item: uint64(k % 7), Delta: 1}); err != nil {
					return p.Log, err
				}
			}
			return p.Log, nil
		}
		refLog, refErr := run(false)
		elLog, elErr := run(true)
		if (refErr == nil) != (elErr == nil) {
			t.Fatalf("coordinator error divergence: per-event %v, elided %v", refErr, elErr)
		}
		if !reflect.DeepEqual(refLog, elLog) {
			t.Fatalf("violation logs diverge:\nper-event %+v\nelided    %+v", refLog, elLog)
		}
	})
}
