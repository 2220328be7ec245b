package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"automon/internal/core"
)

// GroupID identifies one monitoring group (one monitored function and its
// node roster) inside a multi-tenant coordinator process. A single-group
// deployment is group 0.
type GroupID uint16

// MaxGroups bounds the group-id space. A batch frame naming a group outside
// [0, MaxGroups) is malformed — the bound keeps a hostile frame from standing
// up unbounded per-group state and gives the fuzzer a crisp invariant.
const MaxGroups = 4096

// Wire format. Every frame is a group-tagged batch of one or more messages:
//
//	[4-byte LE  batchTag<<28 | bodyLen]
//	[2-byte LE  group][2-byte LE count]
//	count × { [4-byte LE sub-length][payload] }
//
// The top nibble of the first word is batchTag (0xB) and the low 28 bits hold
// the body length. A first word with any other top nibble — a bare length
// prefix, say — is rejected as malformed before a single body byte is read.
const (
	// batchTag marks a frame in the top nibble of its first word.
	batchTag = 0xB
	// batchLenMask extracts the 28-bit body length from the first word.
	batchLenMask = 1<<28 - 1
	// batchHdrLen is the batch body header: u16 group + u16 count.
	batchHdrLen = 4
	// batchSubHeader is the per-message length prefix inside a batch body.
	batchSubHeader = 4
)

// BatchOptions configure outbound frame batching on a connection: messages
// to the same peer are coalesced into one batch frame until a flush trigger
// fires. The zero value disables coalescing — every message leaves
// immediately in its own single-message frame.
type BatchOptions struct {
	// MaxBytes flushes the pending batch once its body (sub-headers plus
	// payloads) reaches this size. 0 disables coalescing.
	MaxBytes int
	// MaxDelay bounds how long a buffered message may wait before the batch
	// is flushed by a timer, so a lull in protocol traffic cannot strand a
	// sync in the buffer. 0 means no timer: only MaxBytes, urgent messages
	// and explicit barrier flushes drain the buffer.
	MaxDelay time.Duration
}

// enabled reports whether messages may be held back for coalescing.
func (b BatchOptions) enabled() bool { return b.MaxBytes > 0 }

// batchStart is where a batch's first sub-header begins: after the frame's
// first word and the batch header, which a writer reserves and patches.
const batchStart = frameHeader + batchHdrLen

// inFrame is one decoded inbound frame: the group it addresses and the
// messages it carried.
type inFrame struct {
	group GroupID
	msgs  []core.Message
}

// frameReader reads one connection's frames. The goroutine that reads the
// connection owns it. It keeps the header word, the message and size slices,
// the returned frame and reusable structs for the hot fixed-shape messages,
// so a frame costs its body and its decoded vectors. A frame, and every
// message in it, is valid until the reader's next read: read drops the
// previous frame's messages before it blocks again, so an idle connection
// pins no decoded vector.
type frameReader struct {
	hdr       [frameHeader]byte
	frame     inFrame
	sizes     []int
	viols     []core.Violation
	reqs      []core.DataRequest
	resps     []core.DataResponse
	slackMsgs []core.Slack
}

// readConn reads one frame from conn, with an optional deadline (0 = block
// until the peer speaks or the connection dies).
func (fr *frameReader) readConn(conn net.Conn, timeout time.Duration, stats *TrafficStats) (*inFrame, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	return fr.read(conn, stats)
}

// read reads one frame from r. A first word that is not batch-tagged is
// refused before any body is read, and a tagged one allocates at most
// initialFrameAlloc ahead of delivered bytes, so a hostile first word costs
// little. Every structural fault — short body, out-of-range group, zero or
// overrunning count, truncated or undecodable sub-message, trailing bytes —
// is a protocol error; a failed frame leaves no message behind and nothing
// counted in stats.
func (fr *frameReader) read(r io.Reader, stats *TrafficStats) (*inFrame, error) {
	fr.release()
	if err := fr.fill(r); err != nil {
		fr.release()
		return nil, err
	}
	stats.countRecvBatch(fr.frame.msgs, fr.sizes)
	return &fr.frame, nil
}

// release drops the previous frame: its messages, and the vectors the reused
// structs point at.
func (fr *frameReader) release() {
	fr.frame.msgs = reuse(fr.frame.msgs)
	fr.sizes = fr.sizes[:0]
	fr.viols = reuse(fr.viols)
	fr.reqs = reuse(fr.reqs)
	fr.resps = reuse(fr.resps)
	fr.slackMsgs = reuse(fr.slackMsgs)
}

// reuse zeroes s's entries, releasing what they point at, and empties it.
func reuse[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// fill parses one frame into fr.frame.
func (fr *frameReader) fill(r io.Reader) error {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return err
	}
	word := binary.LittleEndian.Uint32(fr.hdr[:])
	if word>>28 != batchTag {
		return fmt.Errorf("%w: first word %#08x is not a batch header", errMalformedFrame, word)
	}
	bodyLen := word & batchLenMask
	if bodyLen < batchHdrLen+batchSubHeader+1 {
		return fmt.Errorf("%w: batch body declares %d bytes", errMalformedFrame, bodyLen)
	}
	b, err := readBody(r, int(bodyLen))
	if err != nil {
		return err
	}
	group := binary.LittleEndian.Uint16(b[0:2])
	count := int(binary.LittleEndian.Uint16(b[2:4]))
	if group >= MaxGroups {
		return fmt.Errorf("%w: group id %d out of range", errMalformedFrame, group)
	}
	if count == 0 {
		return fmt.Errorf("%w: empty batch", errMalformedFrame)
	}
	if count*batchSubHeader > len(b)-batchHdrLen {
		return fmt.Errorf("%w: batch count %d overruns body", errMalformedFrame, count)
	}
	off := batchHdrLen
	for i := 0; i < count; i++ {
		if len(b)-off < batchSubHeader {
			return fmt.Errorf("%w: truncated sub-message header", errMalformedFrame)
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += batchSubHeader
		if n > len(b)-off {
			return fmt.Errorf("%w: sub-message declares %d of %d remaining bytes", errMalformedFrame, n, len(b)-off)
		}
		m, err := fr.decode(b[off : off+n])
		if err != nil {
			return fmt.Errorf("%w: %v", errMalformedFrame, err)
		}
		off += n
		fr.frame.msgs = append(fr.frame.msgs, m)
		fr.sizes = append(fr.sizes, n)
	}
	if off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes after batch", errMalformedFrame, len(b)-off)
	}
	fr.frame.group = GroupID(group)
	return nil
}

// decode parses one sub-message: a hot fixed-shape type into the reader's
// next reusable struct of that type, anything else through core.Decode.
func (fr *frameReader) decode(p []byte) (core.Message, error) {
	var m interface {
		core.Message
		UnmarshalBinary([]byte) error
	}
	if len(p) > 0 {
		switch core.MsgType(p[0]) {
		case core.MsgViolation:
			m = slot(&fr.viols)
		case core.MsgDataRequest:
			m = slot(&fr.reqs)
		case core.MsgDataResponse:
			m = slot(&fr.resps)
		case core.MsgSlack:
			m = slot(&fr.slackMsgs)
		}
	}
	if m == nil {
		return core.Decode(p)
	}
	return m, m.UnmarshalBinary(p)
}

// slot appends a zero T to *s and returns it. A frame carrying more of one
// type than any before grows the slice; the messages already decoded keep
// pointing into the old array, which lives as long as they do.
func slot[T any](s *[]T) *T {
	var zero T
	*s = append(*s, zero)
	return &(*s)[len(*s)-1]
}

// readBody reads exactly n declared bytes. A body of at most
// initialFrameAlloc is one exact-size allocation; a larger one grows with
// delivered bytes, so a lying length prefix can never force more allocation
// than the peer actually sends (plus initialFrameAlloc).
func readBody(r io.Reader, n int) ([]byte, error) {
	var b []byte
	var err error
	if n <= initialFrameAlloc {
		b = make([]byte, n)
		_, err = io.ReadFull(r, b)
	} else {
		var body bytes.Buffer
		body.Grow(initialFrameAlloc)
		_, err = io.CopyN(&body, r, int64(n))
		b = body.Bytes()
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// frameWriter owns one connection's outbound framing: group tagging and the
// batching flush policy. All sends to a peer funnel through its writer, which
// both serializes the stream and guarantees per-peer message order is exactly
// the order of writeMsg calls — buffered messages are never reordered around
// urgent ones, because an urgent message flushes the whole buffer including
// itself.
//
// Flush triggers, any of which drains the buffer in one batch frame:
//   - the body reaching BatchOptions.MaxBytes,
//   - a writeMsg with urgent=true (request/response round trips, node
//     reports — anything a peer is actively waiting on),
//   - an explicit flush() — the coordinator's sync barriers, and a node's
//     reply after hold,
//   - the BatchOptions.MaxDelay timer.
//
// Messages are encoded in place, behind the first word and batch header that
// the frame reserves; flushLocked patches the lengths and writes the frame in
// a single Write, preserving the invariant that a frame is the atomic unit a
// fault injector can drop or duplicate. The frame buffer is reused, so a
// steady-state message costs no allocation.
type frameWriter struct {
	conn    net.Conn
	stats   *TrafficStats
	latency time.Duration
	batch   BatchOptions
	group   GroupID

	mu sync.Mutex
	// body is the pending frame: the reserved batchStart bytes, then one
	// sub-header and payload per buffered message. Empty when nothing is
	// pending.
	body  []byte
	sizes []int
	types []string
	// timer is the writer's one MaxDelay timer, created on first use and
	// re-armed per batch. due is the armed batch's deadline: a firing that
	// finds no armed batch, or one not yet due, is stale (an explicit flush
	// drained the batch it was armed for, and Stop lost the race with the
	// firing) and must not flush a newer batch early.
	timer *time.Timer
	armed bool
	due   time.Time
	err   error // sticky: once a write fails the connection is done
}

// newFrameWriter builds the writer for one connection of group.
func newFrameWriter(conn net.Conn, group GroupID, opts Options, stats *TrafficStats) *frameWriter {
	return &frameWriter{
		conn:    conn,
		stats:   stats,
		latency: opts.Latency,
		batch:   opts.Batch,
		group:   group,
	}
}

// writeMsg encodes and sends m. With batching disabled (or urgent set) the
// message — and everything buffered before it — leaves immediately;
// otherwise it is coalesced until a flush trigger fires.
func (w *frameWriter) writeMsg(m core.Message, urgent bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(m); err != nil {
		return err
	}
	if urgent || !w.batch.enabled() || len(w.body)-batchStart >= w.batch.MaxBytes {
		return w.flushLocked()
	}
	if !w.armed && w.batch.MaxDelay > 0 {
		w.armLocked()
	}
	return nil
}

// hold encodes m into the pending frame under no flush trigger at all: the
// caller flushes once it has released its own locks, so a node can encode a
// reply from state its lock guards and still write outside that lock.
func (w *frameWriter) hold(m core.Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(m)
}

// appendLocked encodes m behind its sub-header at the end of the pending
// frame. Caller holds w.mu.
func (w *frameWriter) appendLocked(m core.Message) error {
	if w.err != nil {
		return w.err
	}
	if len(w.sizes) == 0 {
		w.body = append(w.body[:0], make([]byte, batchStart)...)
	}
	start := len(w.body)
	w.body = m.AppendBinary(append(w.body, make([]byte, batchSubHeader)...))
	end := len(w.body)
	n := end - start - batchSubHeader
	if n > maxFrameLen {
		w.body = w.body[:start]
		return fmt.Errorf("%w: encoding %d bytes", errFrameTooLarge, n)
	}
	// A batch body must fit the 28-bit length field (and count must fit
	// u16): a message that would overflow either goes out in the next frame,
	// after the running batch is flushed without it.
	if end-frameHeader > batchLenMask || len(w.sizes) >= 1<<16-1 {
		w.body = w.body[:start]
		if err := w.flushLocked(); err != nil {
			return err
		}
		w.body = append(w.body[:batchStart], w.body[start:end]...)
		start = batchStart
	}
	binary.LittleEndian.PutUint32(w.body[start:], uint32(n))
	w.sizes = append(w.sizes, n)
	w.types = append(w.types, m.Type().String())
	return nil
}

// armLocked starts the MaxDelay countdown of the batch just opened. Caller
// holds w.mu. The timer runs a function and has no channel, so Reset needs
// no drain (contrast armTimer).
func (w *frameWriter) armLocked() {
	w.armed = true
	w.due = time.Now().Add(w.batch.MaxDelay)
	if w.timer == nil {
		w.timer = time.AfterFunc(w.batch.MaxDelay, w.timerFlush)
		return
	}
	w.timer.Reset(w.batch.MaxDelay)
}

// disarmLocked cancels the armed countdown. A firing already under way
// finds the writer disarmed, or armed for a later batch not yet due.
func (w *frameWriter) disarmLocked() {
	if w.armed {
		w.timer.Stop()
		w.armed = false
	}
}

// flush drains any buffered messages in one batch frame. It is the explicit
// sync-barrier trigger: the coordinator calls it when a resolution wave
// completes, so no node waits on a sync stranded in a buffer.
func (w *frameWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// timerFlush is the MaxDelay backstop. A stale firing — the batch it was
// armed for already drained, and a newer one possibly pending — finds no
// armed batch or one not yet due, and leaves the writer alone.
func (w *frameWriter) timerFlush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.armed || time.Now().Before(w.due) {
		return
	}
	// A failed flush latches its error and closes the connection, whose
	// reader surfaces it as a disconnect.
	_ = w.flushLocked()
}

// flushLocked emits the pending batch as one frame. Caller holds w.mu.
func (w *frameWriter) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.sizes) == 0 {
		return nil
	}
	w.disarmLocked()
	binary.LittleEndian.PutUint32(w.body, uint32(batchTag)<<28|uint32(len(w.body)-frameHeader))
	binary.LittleEndian.PutUint16(w.body[frameHeader:], uint16(w.group))
	binary.LittleEndian.PutUint16(w.body[frameHeader+2:], uint16(len(w.sizes)))
	if err := w.writeLocked(w.body); err != nil {
		return err
	}
	w.stats.countSendBatch(w.sizes, w.types)
	w.body = w.body[:0]
	w.sizes = w.sizes[:0]
	w.types = w.types[:0]
	return nil
}

// writeLocked performs the deadline-bounded single Write of one frame,
// injecting the simulated one-way latency once per frame (batching amortizes
// the WAN round trip exactly as it amortizes headers). A failed
// write latches the error and closes the connection so the peer's reader and
// the fault-tolerance layer take over.
func (w *frameWriter) writeLocked(buf []byte) error {
	if w.latency > 0 {
		time.Sleep(w.latency)
	}
	w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	defer w.conn.SetWriteDeadline(time.Time{})
	if _, err := w.conn.Write(buf); err != nil {
		w.err = err
		// The error is sticky: no flush will ever write again, so an armed
		// MaxDelay timer has nothing left to do.
		w.disarmLocked()
		w.conn.Close()
		return err
	}
	return nil
}

// armTimer returns t re-armed for d, or a new timer when t is nil. go.mod
// sets go 1.22, so timers keep the pre-1.23 semantics: a timer that fired
// unread keeps its tick in the channel through Stop and Reset. Stop plus a
// non-blocking drain first keeps that stale tick from ending the next wait
// at once.
func armTimer(t *time.Timer, d time.Duration) *time.Timer {
	if t == nil {
		return time.NewTimer(d)
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	return t
}
