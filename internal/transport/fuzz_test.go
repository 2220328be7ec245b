package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"automon/internal/core"
	"automon/internal/linalg"
)

// frameOf wraps a message's payload in the wire framing.
func frameOf(m core.Message) []byte {
	payload := m.Encode()
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[frameHeader:], payload)
	return buf
}

// FuzzReadFrame feeds arbitrary byte prefixes to the frame decoder: it must
// either produce a message or error cleanly — never panic, and never count a
// failed frame in the traffic stats. The allocation bound for lying length
// prefixes is asserted separately in TestLyingLengthPrefixBoundsAllocation.
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
		fr := frameOf(m)
		f.Add(fr)
		f.Add(fr[:len(fr)/2]) // mid-frame truncation
		f.Add(fr[:frameHeader-1])
	}
	// Lying headers: a large declared length with little or no body behind it.
	lie := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(lie, maxFrameLen)
	f.Add(lie)
	over := make([]byte, frameHeader, frameHeader+4)
	binary.LittleEndian.PutUint32(over, 1<<31)
	f.Add(append(over, 0xde, 0xad, 0xbe, 0xef))

	f.Fuzz(func(t *testing.T, data []byte) {
		var stats TrafficStats
		m, err := decodeFrame(bytes.NewReader(data), &stats)
		if err != nil {
			if stats.MessagesReceived.Load() != 0 {
				t.Fatalf("failed frame counted in stats: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil message without error")
		}
		if stats.MessagesReceived.Load() != 1 {
			t.Fatalf("decoded frame counted %d times", stats.MessagesReceived.Load())
		}
		// A decoded frame must satisfy the accounting identity.
		if got, want := stats.WireReceived.Load(),
			stats.PayloadReceived.Load()+frameHeader+perMessageWireOverhead; got != want {
			t.Fatalf("wire accounting: %d != %d", got, want)
		}
	})
}

func TestOversizedFrameRejected(t *testing.T) {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, maxFrameLen+1)
	var stats TrafficStats
	_, err := decodeFrame(bytes.NewReader(hdr), &stats)
	if !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("declared %d bytes, got err=%v, want errFrameTooLarge", maxFrameLen+1, err)
	}
	if !isProtocolError(err) {
		t.Fatal("oversized frame must classify as a protocol error")
	}
}

// TestLyingLengthPrefixBoundsAllocation proves a header that declares the
// maximum frame length but delivers no body cannot make the decoder allocate
// anywhere near the declared size: allocation tracks delivered bytes.
func TestLyingLengthPrefixBoundsAllocation(t *testing.T) {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr, maxFrameLen) // largest accepted value
	var stats TrafficStats
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const iters = 8
	for i := 0; i < iters; i++ {
		_, err := decodeFrame(bytes.NewReader(hdr), &stats)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("bodyless frame: err=%v, want unexpected EOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / iters
	if perCall > 1<<20 {
		t.Fatalf("decoder allocated ~%d bytes for a frame declaring %d bytes", perCall, maxFrameLen)
	}
}
