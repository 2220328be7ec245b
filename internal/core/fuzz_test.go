package core

import (
	"testing"

	"automon/internal/linalg"
)

// FuzzDecode hardens the wire codec against malformed input: whatever the
// bytes, Decode must return an error or a well-formed message — never
// panic, never over-allocate. Run with `go test -fuzz FuzzDecode` for a
// real fuzzing session; the seed corpus below runs as a normal test.
func FuzzDecode(f *testing.F) {
	f.Add((&Violation{NodeID: 1, Kind: ViolationSafeZone, X: []float64{1, 2}}).Encode())
	f.Add((&DataRequest{NodeID: 9}).Encode())
	f.Add((&DataResponse{NodeID: 2, X: []float64{3}}).Encode())
	f.Add((&Sync{
		NodeID: 0, Method: MethodX, Kind: ConvexDiff,
		X0: []float64{1}, GradF0: []float64{2}, Slack: []float64{3},
	}).Encode())
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
	f.Add((&Slack{NodeID: 4, Slack: []float64{0.5}}).Encode())
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
		// A successfully decoded message must re-encode without panicking.
		_ = m.Encode()
	})
}
