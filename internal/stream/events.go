package stream

import (
	"math"
	"math/rand"

	"automon/internal/sketch"
)

// Events is a replayable per-node turnstile event stream for the ingestion
// layer (internal/ingest): Warm[i] primes node i's sketch before the first
// sync, PerNode[i] is node i's monitored event sequence. Pre-generation
// keeps runs replayable across the elided and per-event paths — the
// differential harness feeds both from the same Events value.
type Events struct {
	Name    string
	Nodes   int
	Warm    [][]sketch.Update
	PerNode [][]sketch.Update
}

// EventsPerNode returns the monitored event count of the longest node
// stream.
func (e *Events) EventsPerNode() int {
	max := 0
	for _, evs := range e.PerNode {
		if len(evs) > max {
			max = len(evs)
		}
	}
	return max
}

// SketchChurn is the drift-within-zone workload behind the headline
// events/sec/node benchmark: warm-up inserts build a stable frequency
// profile, then monitored events alternate inserts and deletions over the
// same working set, so the sketch oscillates inside a small ball around the
// sync point and (with elision) almost no event needs an exact check.
func SketchChurn(nodes, warm, events int, seed int64) *Events {
	rng := rand.New(rand.NewSource(seed))
	e := &Events{Name: "sketch-churn", Nodes: nodes}
	pick := func() uint64 {
		if rng.Float64() < 0.3 {
			return uint64(rng.Intn(8)) // heavy items
		}
		return uint64(8 + rng.Intn(120))
	}
	for i := 0; i < nodes; i++ {
		w := make([]sketch.Update, warm)
		for k := range w {
			w[k] = sketch.Update{Item: pick(), Delta: 1}
		}
		evs := make([]sketch.Update, events)
		for k := range evs {
			// Paired churn: even events insert, odd events delete an item of
			// the same popularity class, so the global profile drifts only by
			// sampling noise.
			d := 1.0
			if k%2 == 1 {
				d = -1
			}
			evs[k] = sketch.Update{Item: pick(), Delta: d}
		}
		e.Warm = append(e.Warm, w)
		e.PerNode = append(e.PerNode, evs)
	}
	return e
}

// SketchBursts layers heavy-hitter bursts over a churn baseline: the middle
// third of each node's stream concentrates inserts on three hot items,
// raising the global second moment enough to violate safe zones and force
// syncs — the workload the differential harness uses to prove identical
// violation/sync sequences.
func SketchBursts(nodes, warm, events int, seed int64) *Events {
	rng := rand.New(rand.NewSource(seed))
	e := &Events{Name: "sketch-bursts", Nodes: nodes}
	for i := 0; i < nodes; i++ {
		w := make([]sketch.Update, warm)
		for k := range w {
			w[k] = sketch.Update{Item: uint64(rng.Intn(128)), Delta: 1}
		}
		evs := make([]sketch.Update, events)
		for k := range evs {
			frac := float64(k) / float64(events)
			var item uint64
			delta := 1.0
			switch {
			case frac > 0.33 && frac < 0.66 && rng.Float64() < 0.6:
				item = uint64(rng.Intn(3)) // burst: hot items
			case rng.Float64() < 0.1:
				item = uint64(rng.Intn(128))
				delta = -1 // turnstile deletion
			default:
				item = uint64(rng.Intn(512))
			}
			evs[k] = sketch.Update{Item: item, Delta: delta}
		}
		e.Warm = append(e.Warm, w)
		e.PerNode = append(e.PerNode, evs)
	}
	return e
}

// SketchEpisodes is the rare-anomaly workload of the ingestion experiments:
// a drift-free churn baseline with three short episodes (each ≈ 3% of the
// stream) where heavy-weight flows (turnstile weight 4) concentrate on two
// hot items, followed by an equally long decay phase of matching deletions.
// Between episodes the monitored quantity is flat — the regime where
// adaptive monitoring beats any fixed shipping period: a long period is
// blind to the spike, a short one pays for the quiet 90%.
func SketchEpisodes(nodes, warm, events int, seed int64) *Events {
	rng := rand.New(rand.NewSource(seed))
	e := &Events{Name: "sketch-episodes", Nodes: nodes}
	epLen := events / 33
	starts := []int{events * 30 / 100, events * 55 / 100, events * 80 / 100}
	phase := func(k int) (rising, fading bool) {
		for _, s := range starts {
			if k >= s && k < s+epLen {
				return true, false
			}
			if k >= s+epLen && k < s+2*epLen {
				return false, true
			}
		}
		return false, false
	}
	pick := func() uint64 {
		if rng.Float64() < 0.3 {
			return uint64(rng.Intn(8))
		}
		return uint64(8 + rng.Intn(120))
	}
	for i := 0; i < nodes; i++ {
		w := make([]sketch.Update, warm)
		for k := range w {
			w[k] = sketch.Update{Item: pick(), Delta: 1}
		}
		evs := make([]sketch.Update, events)
		for k := range evs {
			rising, fading := phase(k)
			switch {
			case rising && rng.Float64() < 0.85:
				evs[k] = sketch.Update{Item: uint64(rng.Intn(2)), Delta: 4}
			case fading && rng.Float64() < 0.85:
				evs[k] = sketch.Update{Item: uint64(rng.Intn(2)), Delta: -4}
			default:
				d := 1.0
				if k%2 == 1 {
					d = -1
				}
				evs[k] = sketch.Update{Item: pick(), Delta: d}
			}
		}
		e.Warm = append(e.Warm, w)
		e.PerNode = append(e.PerNode, evs)
	}
	return e
}

// SketchChaos is the adversarial-magnitude stream: deltas span twelve
// orders of magnitude with random signs, occasional huge spikes, and
// denormal-scale dribbles. It exists to stress the elision budget
// accounting — any unsoundness in the per-event norm bound shows up here as
// a missed violation in the differential harness.
func SketchChaos(nodes, warm, events int, seed int64) *Events {
	rng := rand.New(rand.NewSource(seed))
	e := &Events{Name: "sketch-chaos", Nodes: nodes}
	for i := 0; i < nodes; i++ {
		w := make([]sketch.Update, warm)
		for k := range w {
			w[k] = sketch.Update{Item: uint64(rng.Intn(64)), Delta: 1}
		}
		evs := make([]sketch.Update, events)
		for k := range evs {
			mag := math.Pow(10, -6+12*rng.Float64())
			if rng.Float64() < 0.5 {
				mag = -mag
			}
			if rng.Float64() < 0.002 {
				mag *= 1e3 // spike
			}
			evs[k] = sketch.Update{Item: uint64(rng.Intn(256)), Delta: mag}
		}
		e.Warm = append(e.Warm, w)
		e.PerNode = append(e.PerNode, evs)
	}
	return e
}
