package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/testenv"
)

// discardConn is a net.Conn whose writes vanish without allocating, so an
// allocation count over a frameWriter measures the writer alone.
type discardConn struct{ memConn }

func (*discardConn) Write(p []byte) (int, error) { return len(p), nil }

var _ net.Conn = (*discardConn)(nil)

// hotMessages are the messages a resolution storm puts on the wire, at the
// benchmark's dimension.
func hotMessages() []core.Message {
	const d = 256
	vec := func(v float64) []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = v + float64(i)
		}
		return x
	}
	return []core.Message{
		&core.Violation{NodeID: 3, Kind: core.ViolationSafeZone, X: vec(1)},
		&core.DataRequest{NodeID: 3},
		&core.DataResponse{NodeID: 3, X: vec(2)},
		&core.Slack{NodeID: 3, Slack: vec(3)},
		&core.Sync{NodeID: 3, Method: core.MethodX, Kind: core.ConvexDiff,
			X0: vec(4), F0: 1, GradF0: vec(5), L: -1, U: 2, Lam: 0.5, R: 0.25, Slack: vec(6)},
	}
}

// TestWireWriterAllocatesNothing pins the in-place encoding: once a writer's
// frame buffer and MaxDelay timer exist, buffering a hot message and
// flushing it allocate nothing.
func TestWireWriterAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	for _, m := range hotMessages() {
		w := newFrameWriter(&discardConn{}, 1,
			Options{Batch: BatchOptions{MaxBytes: 1 << 20, MaxDelay: time.Hour}}, &TrafficStats{})
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.writeMsg(m, false); err != nil {
				t.Fatal(err)
			}
			if err := w.flush(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: writeMsg plus flush allocates %.1f objects, want 0", m.Type(), allocs)
		}
	}
}

// TestWireReaderAllocations pins what an inbound frame costs a reused
// frameReader: its body, the vectors it carries, and, for the types without
// a reused struct, the message itself.
func TestWireReaderAllocations(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	want := map[core.MsgType]float64{
		core.MsgViolation:    2, // body, X
		core.MsgDataRequest:  1, // body
		core.MsgDataResponse: 2, // body, X
		core.MsgSlack:        2, // body, Slack
		core.MsgSync:         5, // body, X0, GradF0, Slack, the Sync
	}
	for _, m := range hotMessages() {
		frame := batchFrameOf(1, m)
		r := bytes.NewReader(frame)
		rd := new(frameReader)
		var stats TrafficStats
		allocs := testing.AllocsPerRun(100, func() {
			r.Reset(frame)
			if _, err := rd.read(r, &stats); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want[m.Type()] {
			t.Errorf("%v: reading a one-message frame allocates %.1f objects, want %.0f", m.Type(), allocs, want[m.Type()])
		}
	}
}

// checkReaderEmpty fails unless rd holds no message and no reused struct
// points at a vector: what a reader keeps between frames must pin nothing.
func checkReaderEmpty(t *testing.T, rd *frameReader) {
	t.Helper()
	if len(rd.frame.msgs) != 0 || len(rd.sizes) != 0 {
		t.Fatalf("reader holds %d messages after clearing", len(rd.frame.msgs))
	}
	for _, m := range rd.frame.msgs[:cap(rd.frame.msgs)] {
		if m != nil {
			t.Fatalf("reader still references a %v", m.Type())
		}
	}
	for _, s := range []any{rd.viols[:cap(rd.viols)], rd.reqs[:cap(rd.reqs)],
		rd.resps[:cap(rd.resps)], rd.slackMsgs[:cap(rd.slackMsgs)]} {
		v := reflect.ValueOf(s)
		for i := 0; i < v.Len(); i++ {
			if !v.Index(i).IsZero() {
				t.Fatalf("reader keeps %+v after clearing", v.Index(i).Interface())
			}
		}
	}
}

// readReused reads one frame of data with the reused reader rd and checks it
// against a fresh reader's verdict: the same error class, the same frame, and
// on failure nothing counted and nothing left behind.
func readReused(t *testing.T, rd *frameReader, stats *TrafficStats, data []byte) bool {
	t.Helper()
	freshStats := TrafficStats{}
	want, wantErr := new(frameReader).read(bytes.NewReader(data), &freshStats)
	counted := stats.MessagesReceived.Load()
	got, err := rd.read(bytes.NewReader(data), stats)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("reused reader err=%v, fresh reader err=%v", err, wantErr)
	}
	if err != nil {
		if stats.MessagesReceived.Load() != counted {
			t.Fatalf("failed frame counted in stats: %v", err)
		}
		checkReaderEmpty(t, rd)
		return false
	}
	if got.group != want.group || !reflect.DeepEqual(got.msgs, want.msgs) {
		t.Fatalf("reused reader decoded %+v, fresh reader %+v", got, want)
	}
	if n := stats.MessagesReceived.Load() - counted; n != int64(len(got.msgs)) {
		t.Fatalf("decoded %d messages, counted %d", len(got.msgs), n)
	}
	return true
}

// TestWireReaderReuse drives one reader across frames of changing shape —
// valid, malformed, valid again — the way a connection's reader sees them.
func TestWireReaderReuse(t *testing.T) {
	msgs := append(sampleMessages(), hotMessages()...)
	bad := batchFrameOf(2, msgs[1], msgs[2])
	binary.LittleEndian.PutUint32(bad[len(bad)-12:], 1<<20) // a vector length the body cannot hold
	frames := []struct {
		data []byte
		ok   bool
	}{
		{batchFrameOf(1, msgs...), true},
		{batchFrameOf(1, msgs[2], msgs[2], msgs[2]), true}, // more violations than any frame before
		{bad, false},
		{batchFrameOf(MaxGroups, msgs[0]), false},
		{batchFrameOf(3, msgs[1]), true},
		{batchFrameOf(3, msgs[5:]...), true},
		{v1FrameOf(msgs[1]), false},
		{batchFrameOf(0, msgs[0], msgs[3]), true},
	}
	rd := new(frameReader)
	var stats TrafficStats
	for i, f := range frames {
		if ok := readReused(t, rd, &stats, f.data); ok != f.ok {
			t.Fatalf("frame %d: decoded=%v, want %v", i, ok, f.ok)
		}
	}
	rd.release()
	checkReaderEmpty(t, rd)
	checkStatsIdentity(t, "reused reader", &stats)
}
