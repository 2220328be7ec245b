package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"automon/internal/core"
)

// memConn is an in-memory net.Conn sink for frame-writer tests: writes append
// to a buffer under a lock (the MaxDelay timer flushes from another
// goroutine), reads drain it, deadlines are no-ops.
type memConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	closed bool
}

func (c *memConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.writes++
	return c.buf.Write(p)
}

func (c *memConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Read(p)
}

func (c *memConn) buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Len()
}

func (c *memConn) writeCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// drainFrames decodes every complete frame sitting in the conn.
func drainFrames(t *testing.T, c *memConn, stats *TrafficStats) []*inFrame {
	t.Helper()
	var out []*inFrame
	for c.buffered() > 0 {
		fb, err := decodeAnyFrame(c, stats)
		if err != nil {
			t.Fatalf("decoding written frames: %v", err)
		}
		out = append(out, fb)
	}
	return out
}

// flatMsgs concatenates the messages of a frame sequence in arrival order.
func flatMsgs(frames []*inFrame) []core.Message {
	var out []core.Message
	for _, fb := range frames {
		out = append(out, fb.msgs...)
	}
	return out
}

// batchFrameOf hand-builds a batch frame, independent of the writer, so
// decoder tests cannot inherit a writer bug.
func batchFrameOf(group GroupID, msgs ...core.Message) []byte {
	var body []byte
	for _, m := range msgs {
		p := m.Encode()
		var h [batchSubHeader]byte
		binary.LittleEndian.PutUint32(h[:], uint32(len(p)))
		body = append(body, h[:]...)
		body = append(body, p...)
	}
	buf := make([]byte, frameHeader+batchHdrLen+len(body))
	binary.LittleEndian.PutUint32(buf, uint32(batchTag)<<28|uint32(batchHdrLen+len(body)))
	binary.LittleEndian.PutUint16(buf[frameHeader:], uint16(group))
	binary.LittleEndian.PutUint16(buf[frameHeader+2:], uint16(len(msgs)))
	copy(buf[frameHeader+batchHdrLen:], body)
	return buf
}

func sampleMessages() []core.Message {
	return []core.Message{
		&core.DataRequest{NodeID: 0},
		&core.DataResponse{NodeID: 1, X: []float64{1, 2, 3}},
		&core.Violation{NodeID: 2, Kind: core.ViolationSafeZone, X: []float64{0.5}},
		&core.Slack{NodeID: 3, Slack: []float64{-1, 1}},
		&core.Rejoin{NodeID: 4, X: []float64{9, 9}},
	}
}

// TestBatchRoundTripProperty is the round-trip property for group-tagged
// frames: for every message subset and several group ids, what the writer
// frames the reader returns — same group, same messages, same order, same
// encodings.
func TestBatchRoundTripProperty(t *testing.T) {
	msgs := sampleMessages()
	for _, group := range []GroupID{0, 1, 7, MaxGroups - 1} {
		for n := 1; n <= len(msgs); n++ {
			conn := &memConn{}
			w := newFrameWriter(conn, group, Options{Batch: BatchOptions{MaxBytes: 1 << 20}}, &TrafficStats{})
			for _, m := range msgs[:n] {
				if err := w.writeMsg(m, false); err != nil {
					t.Fatalf("writeMsg: %v", err)
				}
			}
			if err := w.flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			var stats TrafficStats
			frames := drainFrames(t, conn, &stats)
			if len(frames) != 1 {
				t.Fatalf("group %d, %d msgs: got %d frames, want 1", group, n, len(frames))
			}
			fb := frames[0]
			if fb.group != group {
				t.Fatalf("frame came back for group %d, want %d", fb.group, group)
			}
			if len(fb.msgs) != n {
				t.Fatalf("got %d messages, want %d", len(fb.msgs), n)
			}
			for i, m := range fb.msgs {
				if !reflect.DeepEqual(m, msgs[i]) {
					t.Fatalf("message %d mutated in transit: %#v != %#v", i, m, msgs[i])
				}
			}
		}
	}
}

// TestBatchMaxBytesBoundary pins the max-bytes trigger: messages buffer while
// the body stays under MaxBytes and flush in one frame the moment a write
// reaches it.
func TestBatchMaxBytesBoundary(t *testing.T) {
	m := &core.DataResponse{NodeID: 1, X: []float64{1, 2, 3}}
	per := batchSubHeader + len(m.Encode())
	const count = 4
	conn := &memConn{}
	w := newFrameWriter(conn, 2, Options{Batch: BatchOptions{MaxBytes: count * per}}, &TrafficStats{})
	for i := 0; i < count-1; i++ {
		if err := w.writeMsg(m, false); err != nil {
			t.Fatalf("writeMsg: %v", err)
		}
		if got := conn.buffered(); got != 0 {
			t.Fatalf("after %d messages (under MaxBytes) %d bytes were written", i+1, got)
		}
	}
	// The count-th message makes the body exactly MaxBytes: flush.
	if err := w.writeMsg(m, false); err != nil {
		t.Fatalf("writeMsg: %v", err)
	}
	if conn.buffered() == 0 {
		t.Fatal("body reached MaxBytes but nothing was flushed")
	}
	frames := drainFrames(t, conn, &TrafficStats{})
	if len(frames) != 1 || len(frames[0].msgs) != count {
		t.Fatalf("got %d frames / %d msgs, want 1 frame of %d", len(frames), len(flatMsgs(frames)), count)
	}
	if conn.writeCalls() != 1 {
		t.Fatalf("batch left in %d writes, want a single atomic write", conn.writeCalls())
	}
}

// TestBatchMaxDelayTimer pins the timer backstop: a lone buffered message
// may wait at most MaxDelay before the batch flushes on its own.
func TestBatchMaxDelayTimer(t *testing.T) {
	conn := &memConn{}
	w := newFrameWriter(conn, 1,
		Options{Batch: BatchOptions{MaxBytes: 1 << 20, MaxDelay: 20 * time.Millisecond}}, &TrafficStats{})
	if err := w.writeMsg(&core.DataRequest{NodeID: 0}, false); err != nil {
		t.Fatalf("writeMsg: %v", err)
	}
	if got := conn.buffered(); got != 0 {
		t.Fatalf("message flushed immediately (%d bytes) despite batching", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for conn.buffered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("MaxDelay timer never flushed the batch")
		}
		time.Sleep(time.Millisecond)
	}
	frames := drainFrames(t, conn, &TrafficStats{})
	if len(frames) != 1 || len(frames[0].msgs) != 1 {
		t.Fatalf("timer flush produced %d frames", len(frames))
	}
}

// TestBatchUrgentFlushesBuffered pins the urgent trigger and its ordering
// contract: an urgent message flushes the whole buffer including itself, in
// write order — urgency must never let a message overtake earlier ones.
func TestBatchUrgentFlushesBuffered(t *testing.T) {
	conn := &memConn{}
	w := newFrameWriter(conn, 3, Options{Batch: BatchOptions{MaxBytes: 1 << 20}}, &TrafficStats{})
	want := []core.Message{
		&core.Slack{NodeID: 0, Slack: []float64{1}},
		&core.Slack{NodeID: 1, Slack: []float64{2}},
		&core.DataRequest{NodeID: 2}, // urgent
	}
	for i, m := range want {
		if err := w.writeMsg(m, i == len(want)-1); err != nil {
			t.Fatalf("writeMsg: %v", err)
		}
	}
	frames := drainFrames(t, conn, &TrafficStats{})
	if len(frames) != 1 {
		t.Fatalf("urgent write produced %d frames, want 1", len(frames))
	}
	got := flatMsgs(frames)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order not preserved: %#v != %#v", got, want)
	}
}

// TestBatchOrderDeterministic is the determinism property behind the
// automon-lint contract: for any interleaving of urgent and batched writes,
// the concatenation of delivered frames is exactly the write sequence.
func TestBatchOrderDeterministic(t *testing.T) {
	// Every 8-write urgency pattern, exhaustively.
	for pattern := 0; pattern < 1<<8; pattern++ {
		conn := &memConn{}
		w := newFrameWriter(conn, 1, Options{Batch: BatchOptions{MaxBytes: 1 << 20}}, &TrafficStats{})
		var want []core.Message
		for i := 0; i < 8; i++ {
			m := &core.Slack{NodeID: i, Slack: []float64{float64(i)}}
			want = append(want, m)
			if err := w.writeMsg(m, pattern&(1<<i) != 0); err != nil {
				t.Fatalf("writeMsg: %v", err)
			}
		}
		if err := w.flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		got := flatMsgs(drainFrames(t, conn, &TrafficStats{}))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %08b: delivery order diverged from write order", pattern)
		}
	}
}

// TestBatchStatsIdentity pins the generalized wire accounting: a flushed
// batch counts its messages individually, one frame, and the exact batch
// header bytes, preserving the Wire = Payload + Frames·overhead + Batch
// identity on both ends.
func TestBatchStatsIdentity(t *testing.T) {
	conn := &memConn{}
	var sendStats, recvStats TrafficStats
	w := newFrameWriter(conn, 5, Options{Batch: BatchOptions{MaxBytes: 1 << 20}}, &sendStats)
	msgs := sampleMessages()
	payload := 0
	for _, m := range msgs {
		payload += len(m.Encode())
		if err := w.writeMsg(m, false); err != nil {
			t.Fatalf("writeMsg: %v", err)
		}
	}
	if err := w.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	drainFrames(t, conn, &recvStats)
	for name, s := range map[string]*TrafficStats{"send": &sendStats, "recv": &recvStats} {
		checkStatsIdentity(t, name, s)
	}
	over := int64(batchHdrLen + len(msgs)*batchSubHeader)
	if got := sendStats.MessagesSent.Load(); got != int64(len(msgs)) {
		t.Fatalf("messages sent = %d, want %d", got, len(msgs))
	}
	if got := sendStats.FramesSent.Load(); got != 1 {
		t.Fatalf("frames sent = %d, want 1", got)
	}
	if got := sendStats.BatchOverheadSent.Load(); got != over {
		t.Fatalf("batch overhead sent = %d, want %d", got, over)
	}
	if got, want := sendStats.WireSent.Load(),
		int64(payload)+over+frameHeader+perMessageWireOverhead; got != want {
		t.Fatalf("wire sent = %d, want %d", got, want)
	}
	if got, want := recvStats.MessagesReceived.Load(), int64(len(msgs)); got != want {
		t.Fatalf("messages received = %d, want %d", got, want)
	}
}

// TestBatchGroupIDOutOfRangeRejected pins the codec bound: a structurally
// valid batch naming a group ≥ MaxGroups must be a protocol error.
func TestBatchGroupIDOutOfRangeRejected(t *testing.T) {
	frame := batchFrameOf(0, &core.DataRequest{NodeID: 1})
	binary.LittleEndian.PutUint16(frame[frameHeader:], MaxGroups)
	var stats TrafficStats
	_, err := decodeAnyFrame(bytes.NewReader(frame), &stats)
	if !errors.Is(err, errMalformedFrame) {
		t.Fatalf("group %d accepted: err=%v, want errMalformedFrame", MaxGroups, err)
	}
	if stats.MessagesReceived.Load() != 0 {
		t.Fatal("rejected frame counted in stats")
	}
}

// TestBatchLyingLengthBoundsAllocation is the allocation bound for a tagged
// first word: a batch header declaring the maximum body with no bytes behind it
// must not allocate anywhere near the declared size.
func TestBatchLyingLengthBoundsAllocation(t *testing.T) {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, uint32(batchTag)<<28|batchLenMask)
	var stats TrafficStats
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const iters = 8
	for i := 0; i < iters; i++ {
		_, err := decodeAnyFrame(bytes.NewReader(hdr), &stats)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("bodyless batch: err=%v, want unexpected EOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / iters
	if perCall > 1<<20 {
		t.Fatalf("decoder allocated ~%d bytes for a batch declaring %d bytes", perCall, batchLenMask)
	}
}

// FuzzReadBatchFrame feeds arbitrary bytes to the frame reader: it must
// produce well-formed frames or error cleanly — never panic, never count a
// failed frame, never return an out-of-range group or an empty message list.
func FuzzReadBatchFrame(f *testing.F) {
	msgs := sampleMessages()
	// Well-formed batches of every size and a few groups.
	for _, g := range []GroupID{0, 1, MaxGroups - 1} {
		f.Add(batchFrameOf(g, msgs...))
		f.Add(batchFrameOf(g, msgs[0]))
	}
	whole := batchFrameOf(3, msgs[:2]...)
	f.Add(whole[:frameHeader])   // header only
	f.Add(whole[:frameHeader+2]) // truncated batch header
	f.Add(whole[:len(whole)/2])  // mid-message truncation
	f.Add(append(whole, 0x00))   // trailing garbage after the frame
	// Group id out of range.
	bad := batchFrameOf(0, msgs[0])
	binary.LittleEndian.PutUint16(bad[frameHeader:], 0xFFFF)
	f.Add(bad)
	// Count lies: zero and overrunning.
	zero := batchFrameOf(1, msgs[0])
	binary.LittleEndian.PutUint16(zero[frameHeader+2:], 0)
	f.Add(zero)
	over := batchFrameOf(1, msgs[0])
	binary.LittleEndian.PutUint16(over[frameHeader+2:], 0xFFFF)
	f.Add(over)
	// Sub-length lies.
	sublie := batchFrameOf(1, msgs[0])
	binary.LittleEndian.PutUint32(sublie[frameHeader+batchHdrLen:], 1<<27)
	f.Add(sublie)
	// Lying body length with no body.
	lie := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(lie, uint32(batchTag)<<28|batchLenMask)
	f.Add(lie)
	// A bare length-prefixed frame (the retired v1 shape) must be refused.
	f.Add(v1FrameOf(msgs[1]))

	f.Fuzz(func(t *testing.T, data []byte) {
		var stats TrafficStats
		fb, err := decodeAnyFrame(bytes.NewReader(data), &stats)
		if err != nil {
			if stats.MessagesReceived.Load() != 0 {
				t.Fatalf("failed frame counted in stats: %v", err)
			}
			return
		}
		if fb == nil || len(fb.msgs) == 0 {
			t.Fatal("decoded frame with no messages and no error")
		}
		if fb.group >= MaxGroups {
			t.Fatalf("decoder returned out-of-range group %d", fb.group)
		}
		if len(data) < frameHeader || data[frameHeader-1]>>4 != batchTag {
			t.Fatalf("decoded a frame whose first word is not batch-tagged: % x", data[:frameHeader])
		}
		if got := stats.MessagesReceived.Load(); got != int64(len(fb.msgs)) {
			t.Fatalf("decoded %d messages, counted %d", len(fb.msgs), got)
		}
		if got := stats.FramesReceived.Load(); got != 1 {
			t.Fatalf("one frame counted %d times", got)
		}
		checkStatsIdentity(t, "fuzz", &stats)
	})
}
