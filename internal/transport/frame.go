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

// inFrame is one decoded inbound frame: the group it addresses and the
// messages it carried.
type inFrame struct {
	group GroupID
	msgs  []core.Message
}

// readAnyFrame reads one frame, with an optional deadline (0 = block until
// the peer speaks or the connection dies).
func readAnyFrame(conn net.Conn, timeout time.Duration, stats *TrafficStats) (*inFrame, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	return decodeAnyFrame(conn, stats)
}

// decodeAnyFrame reads one frame from r. A first word that is not
// batch-tagged is refused before any body is read, and a tagged one allocates
// with delivered bytes, so a hostile first word costs at most
// initialFrameAlloc. Every structural fault — short body, out-of-range
// group, zero or overrunning count, truncated or undecodable sub-message,
// trailing bytes — is a protocol error; nothing is counted in stats unless
// the whole frame parses.
func decodeAnyFrame(r io.Reader, stats *TrafficStats) (*inFrame, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	word := binary.LittleEndian.Uint32(hdr[:])
	if word>>28 != batchTag {
		return nil, fmt.Errorf("%w: first word %#08x is not a batch header", errMalformedFrame, word)
	}
	bodyLen := word & batchLenMask
	if bodyLen < batchHdrLen+batchSubHeader+1 {
		return nil, fmt.Errorf("%w: batch body declares %d bytes", errMalformedFrame, bodyLen)
	}
	b, err := readBody(r, int(bodyLen))
	if err != nil {
		return nil, err
	}
	group := binary.LittleEndian.Uint16(b[0:2])
	count := int(binary.LittleEndian.Uint16(b[2:4]))
	if group >= MaxGroups {
		return nil, fmt.Errorf("%w: group id %d out of range", errMalformedFrame, group)
	}
	if count == 0 {
		return nil, fmt.Errorf("%w: empty batch", errMalformedFrame)
	}
	if count*batchSubHeader > len(b)-batchHdrLen {
		return nil, fmt.Errorf("%w: batch count %d overruns body", errMalformedFrame, count)
	}
	msgs := make([]core.Message, 0, count)
	sizes := make([]int, 0, count)
	off := batchHdrLen
	for i := 0; i < count; i++ {
		if len(b)-off < batchSubHeader {
			return nil, fmt.Errorf("%w: truncated sub-message header", errMalformedFrame)
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += batchSubHeader
		if n > len(b)-off {
			return nil, fmt.Errorf("%w: sub-message declares %d of %d remaining bytes", errMalformedFrame, n, len(b)-off)
		}
		m, err := core.Decode(b[off : off+n])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errMalformedFrame, err)
		}
		off += n
		msgs = append(msgs, m)
		sizes = append(sizes, n)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", errMalformedFrame, len(b)-off)
	}
	stats.countRecvBatch(msgs, sizes)
	return &inFrame{group: GroupID(group), msgs: msgs}, nil
}

// readBody reads exactly n declared bytes. The buffer grows with delivered
// bytes (capped up front at initialFrameAlloc), so a lying length prefix can
// never force more allocation than the peer actually sends.
func readBody(r io.Reader, n int) ([]byte, error) {
	var body bytes.Buffer
	grow := n
	if grow > initialFrameAlloc {
		grow = initialFrameAlloc
	}
	body.Grow(grow)
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body.Bytes(), nil
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
//   - an explicit flush() — the coordinator's sync barriers,
//   - the BatchOptions.MaxDelay timer.
//
// Each batch frame goes out in a single Write, preserving the invariant that
// a frame is the atomic unit a fault injector can drop or duplicate.
type frameWriter struct {
	conn    net.Conn
	stats   *TrafficStats
	latency time.Duration
	batch   BatchOptions
	group   GroupID

	mu    sync.Mutex
	body  []byte // pending batch body: sub-headers + payloads
	sizes []int
	types []string
	timer *time.Timer
	// timerGen identifies the currently armed timer: a fired callback whose
	// generation is stale belongs to a batch an explicit flush already
	// drained (Stop raced the firing) and must not touch the writer.
	timerGen uint64
	err      error // sticky: once a write fails the connection is done
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
	payload := m.Encode()
	if len(payload) > maxFrameLen {
		return fmt.Errorf("%w: encoding %d bytes", errFrameTooLarge, len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	// A batch body must fit the 28-bit length field (and count must fit
	// u16); flush the running batch first if this message would overflow it.
	if len(w.body)+batchSubHeader+len(payload) > batchLenMask-batchHdrLen ||
		len(w.sizes) >= 1<<16-1 {
		if err := w.flushLocked(); err != nil {
			return err
		}
	}
	var sub [batchSubHeader]byte
	binary.LittleEndian.PutUint32(sub[:], uint32(len(payload)))
	w.body = append(w.body, sub[:]...)
	w.body = append(w.body, payload...)
	w.sizes = append(w.sizes, len(payload))
	w.types = append(w.types, m.Type().String())
	if urgent || !w.batch.enabled() || len(w.body) >= w.batch.MaxBytes {
		return w.flushLocked()
	}
	if w.timer == nil && w.batch.MaxDelay > 0 {
		// The callback identifies itself by the generation it was armed
		// with, captured by value before the timer starts, so the check in
		// timerFlush needs no read that could race this assignment.
		w.timerGen++
		gen := w.timerGen
		w.timer = time.AfterFunc(w.batch.MaxDelay, func() { w.timerFlush(gen) })
	}
	return nil
}

// flush drains any buffered messages in one batch frame. It is the explicit
// sync-barrier trigger: the coordinator calls it when a resolution wave
// completes, so no node waits on a sync stranded in a buffer.
func (w *frameWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// timerFlush is the MaxDelay backstop. gen is the generation the firing
// timer was armed with: if it is stale, an explicit flush already drained
// the batch it was armed for and a newer timer may own the next batch — a
// stale callback must neither clobber that timer nor flush the new batch
// before its MaxDelay.
func (w *frameWriter) timerFlush(gen uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer == nil || gen != w.timerGen {
		return
	}
	w.timer = nil
	if err := w.flushLocked(); err != nil {
		// flushLocked already closed the connection and latched the error;
		// the connection's reader surfaces it as a disconnect.
		return
	}
}

// flushLocked emits the pending batch as one frame. Caller holds w.mu.
func (w *frameWriter) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.sizes) == 0 {
		return nil
	}
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	buf := make([]byte, frameHeader+batchHdrLen+len(w.body))
	binary.LittleEndian.PutUint32(buf[0:], uint32(batchTag)<<28|uint32(batchHdrLen+len(w.body)))
	binary.LittleEndian.PutUint16(buf[frameHeader:], uint16(w.group))
	binary.LittleEndian.PutUint16(buf[frameHeader+2:], uint16(len(w.sizes)))
	copy(buf[frameHeader+batchHdrLen:], w.body)
	if err := w.writeLocked(buf); err != nil {
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
		// MaxDelay timer has nothing left to do. Disarm it here rather than
		// letting it fire into a dead writer.
		if w.timer != nil {
			w.timer.Stop()
			w.timer = nil
		}
		w.conn.Close()
		return err
	}
	return nil
}
