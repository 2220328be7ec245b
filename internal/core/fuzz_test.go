package core

import (
	"bytes"
	"slices"
	"testing"

	"automon/internal/linalg"
)

// FuzzDecode hardens the wire codec against malformed input: whatever the
// bytes, Decode must return an error or a well-formed message — never
// panic, never over-allocate. A message has exactly one encoding: any input
// that decodes fails once a byte is appended, and every message re-encodes
// to the input byte for byte (linalg.Acc.Decode accepts only a sum's
// canonical form, so Partial's accumulators do too). Run with `go test -fuzz
// FuzzDecode` for a real fuzzing session; the seed corpus below runs as a
// normal test.
func FuzzDecode(f *testing.F) {
	var acc linalg.Acc
	acc.Add(0.25)
	valid := []Message{
		&Violation{NodeID: 1, Kind: ViolationSafeZone, X: []float64{1, 2}},
		&DataRequest{NodeID: 9},
		&DataResponse{NodeID: 2, X: []float64{3}},
		&Sync{
			NodeID: 0, Method: MethodX, Kind: ConvexDiff,
			X0: []float64{1}, GradF0: []float64{2}, Slack: []float64{3},
		},
		&Slack{NodeID: 4, Slack: []float64{0.5}},
		&Rejoin{NodeID: 3, X: []float64{0.1, 0.2}},
		&Partial{ShardID: 2, Kind: ViolationSafeZone, Epoch: 7, NodeID: 5, Weight: 3, Accs: []linalg.Acc{acc, {}}},
		&SubtreeRejoin{ShardID: 1, IDs: []int{2, 3}, Xs: [][]float64{{1}, {2}}},
	}
	for _, m := range valid {
		f.Add(m.Encode())
		f.Add(append(m.Encode(), 0xde)) // trailing byte
	}
	// First ADCD-E syncs: a rank-1 factor, a rank-0 factor, and the hostile
	// headers the decoder must refuse (k > d, d ≠ len(X0), body missing).
	withFactor := (&Sync{
		NodeID: 1, Method: MethodE, Kind: ConvexDiff,
		X0: []float64{1, 2}, GradF0: []float64{0, 0}, Slack: []float64{0, 0},
		WithMatrix: true,
		Matrix:     &linalg.EigFactor{Lam: []float64{-2}, V: &linalg.Mat{Rows: 1, Cols: 2, Data: []float64{0.6, 0.8}}},
	}).Encode()
	f.Add(withFactor)
	f.Add(withFactor[:len(withFactor)-4])
	f.Add(syncFactorPrefix(0, 2))
	f.Add(syncFactorPrefix(3, 2))
	f.Add(syncFactorPrefix(1, 3))
	f.Add(syncFactorPrefix(0xFFFFFFFF, 0xFFFFFFFF))
	// A matrix flag that is neither 0 nor 1.
	noFactor := valid[3].Encode()
	noFactor[len(noFactor)-1] = 2
	f.Add(noFactor)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// A vector header claiming a huge length with no payload behind it.
	f.Add([]byte{byte(MsgDataResponse), 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("Decode returned nil message with nil error")
		}
		if _, err := Decode(append(slices.Clip(data), 0)); err == nil {
			t.Fatalf("%v decodes with a byte appended: %x", m.Type(), data)
		}
		if enc := m.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("%v re-encodes differently:\n in  %x\n out %x", m.Type(), data, enc)
		}
	})
}
