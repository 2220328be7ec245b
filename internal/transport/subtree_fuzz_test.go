package transport

import (
	"bytes"
	"testing"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/shard"
)

// fuzzTreeComm answers every data pull with a fixed vector — the fuzz tree
// only needs a live protocol state to validate frames against.
type fuzzTreeComm struct{ x []float64 }

func (c *fuzzTreeComm) RequestData(id int) []float64 { return c.x }
func (c *fuzzTreeComm) SendSync(int, *core.Sync)     {}
func (c *fuzzTreeComm) SendSlack(int, *core.Slack)   {}

// FuzzSubtreeFrame hardens the shard-to-parent uplink end to end: arbitrary
// bytes go through the frame reader, and whatever decodes as a
// Partial or SubtreeRejoin is handed to a live shard tree exactly as
// SubtreeListener.serveUplink would. Nothing may panic, a failed frame must
// not be counted in the traffic stats, and protocol lies that survive
// structural decoding — inflated weights, negative weights, stale or future
// epoch tags — must be rejected by the tree without touching its state.
func FuzzSubtreeFrame(f *testing.F) {
	const n, dim = 4, 2
	fn := funcs.SqNorm(dim)
	comm := &fuzzTreeComm{x: []float64{0.5, 0.5}}
	tr, err := shard.NewTree(fn, n, core.Config{Epsilon: 0.5}, comm, shard.Options{Shards: 2, Fanout: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := tr.Init(); err != nil {
		f.Fatal(err)
	}

	accs := make([]linalg.Acc, dim)
	linalg.AddVec(accs, []float64{0.5, 0.5})
	partial := func(mut func(p *core.Partial)) []byte {
		p := &core.Partial{ShardID: 0, Kind: 0, Epoch: tr.Epoch(), NodeID: -1, Weight: 2,
			Accs: append([]linalg.Acc(nil), accs...)}
		if mut != nil {
			mut(p)
		}
		return batchFrameOf(0, p)
	}
	f.Add(partial(nil))                                           // well-formed, current epoch
	f.Add(partial(func(p *core.Partial) { p.Epoch = 0 }))         // stale epoch tag
	f.Add(partial(func(p *core.Partial) { p.Epoch = 1 << 40 }))   // future epoch tag
	f.Add(partial(func(p *core.Partial) { p.Weight = 50 }))       // count lie
	f.Add(partial(func(p *core.Partial) { p.Weight = -1 }))       // negative count
	f.Add(partial(func(p *core.Partial) { p.Accs = p.Accs[:1] })) // wrong dimensionality
	f.Add(partial(func(p *core.Partial) { p.ShardID = 999 }))     // unknown shard
	f.Add(partial(func(p *core.Partial) { p.NodeID = 3; p.Kind = core.ViolationSafeZone }))
	whole := partial(nil)
	f.Add(whole[:len(whole)/2]) // mid-frame truncation
	corrupt := partial(nil)     // flipped bytes inside an accumulator window
	corrupt[len(corrupt)-5] ^= 0xFF
	f.Add(corrupt)
	f.Add(batchFrameOf(0, &core.SubtreeRejoin{ShardID: 0, IDs: []int{0, 1},
		Xs: [][]float64{{0.4, 0.4}, {0.6, 0.6}}})) // healing rejoin
	f.Add(batchFrameOf(0, &core.SubtreeRejoin{ShardID: 1, IDs: []int{2},
		Xs: [][]float64{{0.4, 0.4}}})) // partial population
	f.Add(batchFrameOf(0, &core.Sync{NodeID: 0, Method: core.MethodE, Kind: core.ConvexDiff,
		X0: []float64{1, 2}, GradF0: []float64{0, 0}, Slack: []float64{0, 0}})) // wrong message type

	f.Fuzz(func(t *testing.T, data []byte) {
		var stats TrafficStats
		fr, err := decodeAnyFrame(bytes.NewReader(data), &stats)
		if err != nil {
			if stats.MessagesReceived.Load() != 0 {
				t.Fatalf("failed frame counted in stats: %v", err)
			}
			return
		}
		for _, m := range fr.msgs {
			switch msg := m.(type) {
			case *core.Partial:
				live := tr.LiveCount()
				ok := tr.AcceptPartial(msg)
				if ok && (msg.Epoch != tr.Epoch() || msg.Weight < 0 || msg.Weight > n ||
					len(msg.Accs) != dim) {
					t.Fatalf("protocol lie accepted: %+v (tree epoch %d)", msg, tr.Epoch())
				}
				if tr.LiveCount() != live {
					t.Fatal("AcceptPartial mutated tree liveness")
				}
			case *core.SubtreeRejoin:
				// Must not panic; a rejected frame must leave the population
				// intact. (A valid frame re-admits an already-live partition,
				// which is a no-op for liveness.)
				if err := tr.HandleSubtreeRejoinMsg(msg); err == nil && tr.LiveCount() != n {
					t.Fatalf("rejoin frame shrank the population to %d", tr.LiveCount())
				}
			}
		}
	})
}
