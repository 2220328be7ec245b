package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"automon/internal/core"
	"automon/internal/linalg"
)

// v1FrameOf wraps a message's payload in the retired v1 framing: a bare
// length prefix, one message per frame. No peer speaks it any more; the tests
// keep it as the canonical must-reject input.
func v1FrameOf(m core.Message) []byte {
	payload := m.Encode()
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[frameHeader:], payload)
	return buf
}

// FuzzReadFrame pins the one-wire rule on arbitrary bytes: a first word whose
// top nibble is not batchTag is refused as malformed before a single body
// byte is read, and counted nowhere. The seeds are well-formed v1 frames —
// what a pre-v2 peer would send — their truncations, and lying v1 lengths.
// (What a tagged first word may decode to is FuzzReadBatchFrame's property.)
func FuzzReadFrame(f *testing.F) {
	mat := &linalg.EigFactor{Lam: []float64{-2}, V: &linalg.Mat{Rows: 1, Cols: 2, Data: []float64{0.6, 0.8}}}
	seeds := []core.Message{
		&core.DataRequest{NodeID: 0},
		&core.DataResponse{NodeID: 1, X: []float64{1, 2, 3}},
		&core.Violation{NodeID: 2, Kind: core.ViolationSafeZone, X: []float64{0.5}},
		&core.Sync{
			NodeID: 1, Method: core.MethodE, Kind: core.ConvexDiff,
			X0: []float64{1, 2}, GradF0: []float64{0, 0}, Slack: []float64{0, 0},
			WithMatrix: true, Matrix: mat,
		},
		&core.Slack{NodeID: 3, Slack: []float64{-1, 1}},
		&core.Rejoin{NodeID: 4, X: []float64{9, 9}},
	}
	for _, m := range seeds {
		fr := v1FrameOf(m)
		f.Add(fr)
		f.Add(fr[:len(fr)/2]) // mid-frame truncation
		f.Add(fr[:frameHeader-1])
	}
	// Lying headers: a large declared length with little or no body behind it.
	lie := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(lie, 1<<28)
	f.Add(lie)
	over := make([]byte, frameHeader, frameHeader+4)
	binary.LittleEndian.PutUint32(over, 1<<31)
	f.Add(append(over, 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		var stats TrafficStats
		r := bytes.NewReader(data)
		fb, err := decodeAnyFrame(r, &stats)
		if len(data) >= frameHeader && data[frameHeader-1]>>4 == batchTag {
			return // a tagged first word: FuzzReadBatchFrame's territory
		}
		if err == nil {
			t.Fatalf("untagged first word decoded to %d messages", len(fb.msgs))
		}
		if stats.MessagesReceived.Load() != 0 || stats.FramesReceived.Load() != 0 {
			t.Fatalf("refused frame counted in stats: %v", err)
		}
		if len(data) < frameHeader {
			return // short read: an I/O error, not a verdict on the peer
		}
		if !errors.Is(err, errMalformedFrame) {
			t.Fatalf("untagged first word: err=%v, want errMalformedFrame", err)
		}
		if got := len(data) - r.Len(); got != frameHeader {
			t.Fatalf("decoder consumed %d bytes of a refused frame, want only the %d-byte first word", got, frameHeader)
		}
	})
}

// TestOversizedFrameRejected: a first word no writer can produce — here a v1
// length beyond the old cap — is a protocol error, not an allocation request.
func TestOversizedFrameRejected(t *testing.T) {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, 1<<28+1)
	var stats TrafficStats
	_, err := decodeAnyFrame(bytes.NewReader(hdr), &stats)
	if !errors.Is(err, errMalformedFrame) {
		t.Fatalf("declared %d bytes, got err=%v, want errMalformedFrame", 1<<28+1, err)
	}
}

// TestLyingLengthPrefixBoundsAllocation proves a v1-shaped header that
// declares the largest length v1 allowed but delivers no body cannot make the
// decoder allocate at all: it is refused on the first word, before any body
// buffer exists. (TestBatchLyingLengthBoundsAllocation is the same bound for
// a tagged first word, where allocation tracks delivered bytes.)
func TestLyingLengthPrefixBoundsAllocation(t *testing.T) {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, 1<<28)
	var stats TrafficStats
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const iters = 8
	for i := 0; i < iters; i++ {
		_, err := decodeAnyFrame(bytes.NewReader(hdr), &stats)
		if !errors.Is(err, errMalformedFrame) {
			t.Fatalf("bodyless v1 frame: err=%v, want errMalformedFrame", err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / iters
	if perCall > 4<<10 {
		t.Fatalf("decoder allocated ~%d bytes refusing a first word", perCall)
	}
}
