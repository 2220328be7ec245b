package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds recorded by the protocol layers. Kinds are plain strings so
// obs stays dependency-free; the protocol packages own their vocabulary.
const (
	// Coordinator protocol events (internal/core).
	EventViolation = "violation" // Label: violation kind; Node: reporter
	EventFullSync  = "full_sync" // Value: live-node count
	EventLazySync  = "lazy_sync" // Value: balancing-set size
	EventRDouble   = "r_double"  // Value: new neighborhood radius
	EventNodeDeath = "node_death"
	EventRejoin    = "rejoin"

	// Adaptive radius controller events (internal/core/radius.go).
	EventRSaturated = "r_saturated" // Value: the RMax cap a doubling clamped to
	EventRShrink    = "r_shrink"    // Value: new (smaller) radius swapped in at a sync
	EventRGrow      = "r_grow"      // Value: new (larger) radius swapped in at a sync
	EventRetune     = "retune"      // Value: staged radius; Label: staged | within-noise | bracket-failed

	// Transport events (internal/transport).
	EventFrameSent       = "frame_sent"        // Value: wire bytes; Label: message type
	EventFrameReceived   = "frame_recv"        // Value: wire bytes; Label: message type
	EventReconnectTry    = "reconnect_attempt" // Value: backoff wait (seconds)
	EventReconnected     = "reconnected"
	EventReconnectFailed = "reconnect_gave_up"
	EventDeadlineHit     = "deadline_hit" // Label: which deadline expired
)

// Event is one structured protocol event. Events are fixed-size records:
// the generic Value/Label fields carry the per-kind payload (balancing-set
// size, bytes on wire, new radius, violation kind, ...).
type Event struct {
	Seq   uint64  `json:"seq"`
	Unix  int64   `json:"unix_nanos"`
	Kind  string  `json:"kind"`
	Node  int     `json:"node"`
	Value float64 `json:"value,omitempty"`
	Label string  `json:"label,omitempty"`
}

// Tracer records events into a fixed-size ring buffer: the most recent
// Size() events are retained, older ones are overwritten. A nil Tracer is a
// valid no-op sink — tracing is the part of the observability layer that is
// genuinely off by default, so the Record path of an untraced process is a
// single nil check.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded; buf[next%len] is the write slot
}

// NewTracer creates a tracer retaining the last size events (minimum 16).
func NewTracer(size int) *Tracer {
	if size < 16 {
		size = 16
	}
	return &Tracer{buf: make([]Event, size)}
}

// Record appends one event. Safe for concurrent use; no-op on nil.
func (t *Tracer) Record(kind string, node int, value float64, label string) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.buf[t.next%uint64(len(t.buf))] = Event{
		Seq: t.next, Unix: now, Kind: kind, Node: node, Value: value, Label: label,
	}
	t.next++
	t.mu.Unlock()
}

// Total returns how many events have ever been recorded (including ones the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Size returns the ring capacity (0 on nil).
func (t *Tracer) Size() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Snapshot returns the retained events in recording order (oldest first).
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	start := uint64(0)
	count := t.next
	if t.next > n {
		start = t.next - n
		count = n
	}
	out := make([]Event, 0, count)
	for seq := start; seq < t.next; seq++ {
		out = append(out, t.buf[seq%n])
	}
	return out
}

// WriteJSON renders the retained events as a JSON array (the /debug/events
// payload).
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Snapshot()
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}
