package core

// Property tests for the wire format: every message variant round-trips
// encode→decode exactly under randomized contents (seeded, so failures
// replay), every strict prefix of an encoding is rejected, and NaN payloads
// survive bit-exactly.

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"automon/internal/linalg"
)

// randVec draws a vector with adversarial float contents: zeros, infinities,
// huge and tiny magnitudes. NaN is excluded here (NaN ≠ NaN defeats
// DeepEqual) and covered bit-exactly in TestNaNPayloadRoundTripsBitExact.
func randVec(rng *rand.Rand, maxLen int) []float64 {
	v := make([]float64, rng.Intn(maxLen+1))
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Inf(1)
		case 2:
			v[i] = math.Inf(-1)
		case 3:
			v[i] = (rng.Float64() - 0.5) * 1e300
		case 4:
			v[i] = rng.Float64() * 1e-300
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func randID(rng *rand.Rand) int { return rng.Intn(1 << 16) }

// messageGenerators builds one randomized instance per message variant; the
// round-trip property below must hold for each of them.
var messageGenerators = map[string]func(*rand.Rand) Message{
	"violation": func(rng *rand.Rand) Message {
		return &Violation{
			NodeID: randID(rng),
			Kind:   ViolationKind(1 + rng.Intn(3)),
			X:      randVec(rng, 16),
		}
	},
	"data-request": func(rng *rand.Rand) Message {
		return &DataRequest{NodeID: randID(rng)}
	},
	"data-response": func(rng *rand.Rand) Message {
		return &DataResponse{NodeID: randID(rng), X: randVec(rng, 16)}
	},
	"sync": func(rng *rand.Rand) Message {
		m := &Sync{
			NodeID: randID(rng),
			Method: Method(rng.Intn(3)), // MethodX, MethodE, MethodNone
			Kind:   DCKind(rng.Intn(2)),
			X0:     randVec(rng, 16),
			F0:     rng.NormFloat64(),
			GradF0: randVec(rng, 16),
			L:      -rng.Float64(),
			U:      rng.Float64(),
			Lam:    rng.Float64(),
			R:      rng.Float64(),
			Slack:  randVec(rng, 16),
		}
		if rng.Intn(2) == 1 {
			// Any rank 0..d, rank 0 (no floats at all) included.
			d := len(m.X0)
			k := rng.Intn(d + 1)
			m.WithMatrix = true
			m.Matrix = &linalg.EigFactor{Lam: make([]float64, k), V: linalg.NewMat(k, d)}
			for i := range m.Matrix.Lam {
				m.Matrix.Lam[i] = rng.NormFloat64()
			}
			for i := range m.Matrix.V.Data {
				m.Matrix.V.Data[i] = rng.NormFloat64()
			}
		}
		return m
	},
	"slack": func(rng *rand.Rand) Message {
		return &Slack{NodeID: randID(rng), Slack: randVec(rng, 16)}
	},
	"rejoin": func(rng *rand.Rand) Message {
		return &Rejoin{NodeID: randID(rng), X: randVec(rng, 16)}
	},
}

func TestMessageRoundTripProperty(t *testing.T) {
	for name, gen := range messageGenerators {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for iter := 0; iter < 150; iter++ {
				m := gen(rng)
				got, err := Decode(m.Encode())
				if err != nil {
					t.Fatalf("iter %d: decode: %v", iter, err)
				}
				if !reflect.DeepEqual(m, got) {
					t.Fatalf("iter %d: round trip mismatch:\n got %#v\nwant %#v", iter, got, m)
				}
			}
		})
	}
}

func TestDecodeTruncatedProperty(t *testing.T) {
	// Every strict prefix of every variant's encoding must error, not panic
	// and not decode to a half-read message.
	for name, gen := range messageGenerators {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			for iter := 0; iter < 20; iter++ {
				full := gen(rng).Encode()
				for cut := 0; cut < len(full); cut++ {
					if _, err := Decode(full[:cut]); err == nil {
						t.Fatalf("iter %d: truncation at %d/%d bytes not detected",
							iter, cut, len(full))
					}
				}
			}
		})
	}
}

func TestNaNPayloadRoundTripsBitExact(t *testing.T) {
	// Vectors may legitimately carry NaN (e.g. an uninitialized feature);
	// the wire format must preserve the exact bit pattern, including the
	// NaN payload bits DeepEqual cannot compare.
	bits := []uint64{
		0x7ff8000000000001, // quiet NaN with payload
		math.Float64bits(math.NaN()),
		0xfff8000000000000, // negative quiet NaN
	}
	x := make([]float64, len(bits))
	for i, b := range bits {
		x[i] = math.Float64frombits(b)
	}
	got, err := Decode((&DataResponse{NodeID: 1, X: x}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := got.(*DataResponse)
	if !ok || len(resp.X) != len(bits) {
		t.Fatalf("decoded %#v", got)
	}
	for i, b := range bits {
		if gotBits := math.Float64bits(resp.X[i]); gotBits != b {
			t.Fatalf("element %d: bits %#x → %#x", i, b, gotBits)
		}
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode([]byte{0xFF, 0, 0}); err == nil {
		t.Fatal("unknown type not rejected")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer not rejected")
	}
}

func TestViolationMessageSizeScalesWithDim(t *testing.T) {
	small := (&Violation{NodeID: 1, Kind: ViolationSafeZone, X: make([]float64, 10)}).Encode()
	big := (&Violation{NodeID: 1, Kind: ViolationSafeZone, X: make([]float64, 100)}).Encode()
	if len(big)-len(small) != 90*8 {
		t.Fatalf("payload scaling wrong: %d vs %d bytes", len(small), len(big))
	}
}

// goldenMessages pins the wire bytes of every message that does not carry an
// eigen-factor: the hex strings were produced by the append-per-float
// encoder, so presizing the buffer provably changed no byte.
var goldenMessages = []struct {
	m   Message
	hex string
}{
	{&Violation{NodeID: 513, Kind: ViolationSafeZone, X: []float64{1.5, -2}},
		"0101020202000000000000000000f83f00000000000000c0"},
	{&DataRequest{NodeID: 9}, "020900"},
	{&DataResponse{NodeID: 2, X: []float64{3, 0.25}},
		"030200020000000000000000000840000000000000d03f"},
	{&Sync{NodeID: 7, Method: MethodE, Kind: ConcaveDiff, X0: []float64{1, 2}, F0: 0.5,
		GradF0: []float64{-1, 4}, L: -0.125, U: 8, Lam: 3, R: 0.75, Slack: []float64{0.5, -0.5}},
		"040700010102000000000000000000f03f0000000000000040000000000000e03f02000000000000000000f0bf0000000000001040000000000000c0bf00000000000020400000000000000840000000000000e83f02000000000000000000e03f000000000000e0bf00"},
	{&Slack{NodeID: 4, Slack: []float64{0.5}}, "05040001000000000000000000e03f"},
	{&Rejoin{NodeID: 65535, X: []float64{}}, "06ffff00000000"},
}

func TestEncodeGoldenBytes(t *testing.T) {
	for _, g := range goldenMessages {
		got := g.m.Encode()
		if h := hex.EncodeToString(got); h != g.hex {
			t.Errorf("%v: encoded %s, want %s", g.m.Type(), h, g.hex)
		}
		if cap(got) != len(got) {
			t.Errorf("%v: buffer presized to %d for %d bytes", g.m.Type(), cap(got), len(got))
		}
	}
	// A Sync with its factor: flag, k, d, λ[k], V[k·d] after the shared body.
	withFactor := *goldenMessages[3].m.(*Sync)
	withFactor.WithMatrix = true
	withFactor.Matrix = &linalg.EigFactor{Lam: []float64{-2}, V: &linalg.Mat{Rows: 1, Cols: 2, Data: []float64{0.6, 0.8}}}
	body := goldenMessages[3].hex
	want := body[:len(body)-2] + "01" + "01000000" + "02000000" +
		"00000000000000c0" + "333333333333e33f" + "9a9999999999e93f"
	got := withFactor.Encode()
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("sync with factor: encoded %s, want %s", h, want)
	}
	if cap(got) != len(got) {
		t.Errorf("sync with factor: buffer presized to %d for %d bytes", cap(got), len(got))
	}
}

// syncFactorPrefix encodes a valid d=2 Sync up to and including the factor
// header (flag, k, d), leaving the caller to append whatever body it wants.
func syncFactorPrefix(k, d uint32) []byte {
	base := (&Sync{NodeID: 1, Method: MethodE, X0: []float64{1, 2}, GradF0: []float64{0, 0}, Slack: []float64{0, 0}}).Encode()
	buf := append([]byte(nil), base[:len(base)-1]...)
	buf = append(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, k)
	return binary.LittleEndian.AppendUint32(buf, d)
}

func TestDecodeRejectsHostileFactorHeaders(t *testing.T) {
	floats := func(n int) []byte { return make([]byte, 8*n) }
	cases := []struct {
		name string
		buf  []byte
		ok   bool
	}{
		{"rank 0", syncFactorPrefix(0, 2), true},
		{"rank 1", append(syncFactorPrefix(1, 2), floats(3)...), true},
		{"full rank", append(syncFactorPrefix(2, 2), floats(6)...), true},
		{"k > d", append(syncFactorPrefix(3, 2), floats(9)...), false},
		{"d != len(X0)", append(syncFactorPrefix(1, 3), floats(4)...), false},
		{"d != len(X0) at rank 0", syncFactorPrefix(0, 3), false},
		{"truncated body", append(syncFactorPrefix(2, 2), floats(5)...), false},
		{"body one byte short", append(syncFactorPrefix(1, 2), floats(3)[1:]...), false},
		{"huge k and d, no body", syncFactorPrefix(math.MaxUint32, math.MaxUint32), false},
		{"huge k, small d", syncFactorPrefix(math.MaxUint32, 2), false},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Decode(c.buf)
		runtime.ReadMemStats(&after)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
		if c.ok && !m.(*Sync).WithMatrix {
			t.Errorf("%s: factor dropped", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(c.buf), grew)
		}
	}
}
