package linalg

import (
	"encoding/hex"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// bigSum computes the exact sum of xs with math/big and rounds it to the
// nearest float64 — the reference Round must match bit-for-bit.
func bigSum(xs []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		sum.Add(sum, new(big.Float).SetPrec(4096).SetFloat64(x))
	}
	f, _ := sum.Float64()
	return f
}

func randFloats(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(10) {
		case 0: // huge magnitude
			xs[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(600))
		case 1: // tiny / subnormal
			xs[i] = math.Ldexp(rng.Float64()-0.5, -1000-rng.Intn(70))
		case 2: // exact cancellation material
			xs[i] = float64(rng.Intn(1000) - 500)
		default:
			xs[i] = rng.NormFloat64()
		}
	}
	return xs
}

func TestAccMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := randFloats(rng, 1+rng.Intn(100))
		var a Acc
		for _, x := range xs {
			a.Add(x)
		}
		got, want := a.Round(), bigSum(xs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Round()=%g (%#x) want %g (%#x) for %d inputs",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), len(xs))
		}
	}
}

// TestAccOrderAndTreeInvariance is the keystone property: any permutation
// and any tree partition of the same multiset yields a bit-identical sum.
func TestAccOrderAndTreeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		xs := randFloats(rng, 2+rng.Intn(200))
		var ref Acc
		for _, x := range xs {
			ref.Add(x)
		}
		refBits := math.Float64bits(ref.Round())

		// Shuffled sequential order.
		perm := rng.Perm(len(xs))
		var shuf Acc
		for _, i := range perm {
			shuf.Add(xs[i])
		}
		if math.Float64bits(shuf.Round()) != refBits {
			t.Fatalf("trial %d: shuffled sum differs from sequential", trial)
		}

		// Random partition into 1..8 leaves merged pairwise in random order.
		k := 1 + rng.Intn(8)
		leaves := make([]*Acc, k)
		for i := range leaves {
			leaves[i] = &Acc{}
		}
		for _, x := range xs {
			leaves[rng.Intn(k)].Add(x)
		}
		for len(leaves) > 1 {
			i := rng.Intn(len(leaves) - 1)
			leaves[i].Merge(leaves[i+1])
			leaves = append(leaves[:i+1], leaves[i+2:]...)
		}
		if math.Float64bits(leaves[0].Round()) != refBits {
			t.Fatalf("trial %d: tree-merged sum differs from sequential", trial)
		}
	}
}

func TestAccSpecials(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"zeros", []float64{0, math.Copysign(0, -1)}, 0},
		{"nan poisons", []float64{1, math.NaN(), 2}, math.NaN()},
		{"posinf", []float64{1, math.Inf(1)}, math.Inf(1)},
		{"neginf", []float64{math.Inf(-1), -5}, math.Inf(-1)},
		{"inf clash", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{"exact cancel", []float64{1e300, -1e300, 3}, 3},
		{"subnormal", []float64{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64}, 2 * math.SmallestNonzeroFloat64},
		{"max finite", []float64{math.MaxFloat64}, math.MaxFloat64},
		{"overflow to inf", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"neg overflow", []float64{-math.MaxFloat64, -math.MaxFloat64}, math.Inf(-1)},
		{"tiny plus huge", []float64{1e308, 1e-308, -1e308}, 1e-308},
	}
	for _, tc := range cases {
		var a Acc
		for _, x := range tc.xs {
			a.Add(x)
		}
		got := a.Round()
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Round()=%g want NaN", tc.name, got)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: Round()=%g (%#x) want %g (%#x)",
				tc.name, got, math.Float64bits(got), tc.want, math.Float64bits(tc.want))
		}
	}
}

func TestAccRoundHalfEven(t *testing.T) {
	// 1 + 2^-53 is exactly halfway between 1 and the next float64; half-even
	// rounds down to 1. Adding another 2^-53 lands above the midpoint of the
	// same interval... actually 1 + 2^-52 is exactly representable.
	var a Acc
	a.Add(1)
	a.Add(math.Ldexp(1, -53))
	if got := a.Round(); got != 1 {
		t.Errorf("1 + 2^-53 rounded to %g (%#x), want 1 (half-even)", got, math.Float64bits(got))
	}
	// 1 + 2^-53 + 2^-100 is above the midpoint: rounds up.
	a.Add(math.Ldexp(1, -100))
	want := 1 + math.Ldexp(1, -52)
	if got := a.Round(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("1 + 2^-53 + 2^-100 rounded to %#x, want %#x", math.Float64bits(got), math.Float64bits(want))
	}
	// 1.5 + 2^-53: odd mantissa LSB, half-even rounds up.
	a.Reset()
	a.Add(1 + math.Ldexp(1, -52))
	a.Add(math.Ldexp(1, -53))
	want = 1 + math.Ldexp(2, -52)
	if got := a.Round(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("odd-LSB half rounded to %#x, want %#x", math.Float64bits(got), math.Float64bits(want))
	}
}

func TestAccWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		xs := randFloats(rng, rng.Intn(50))
		var a Acc
		for _, x := range xs {
			a.Add(x)
		}
		buf := a.AppendBinary(nil)
		b, rest, err := decodeAcc(buf)
		if err != nil {
			t.Fatalf("trial %d: decode failed: %v", trial, err)
		}
		if len(rest) != 0 {
			t.Fatalf("trial %d: %d trailing bytes after decode", trial, len(rest))
		}
		if ga, gb := math.Float64bits(a.Round()), math.Float64bits(b.Round()); ga != gb {
			t.Fatalf("trial %d: round-trip changed value %#x -> %#x", trial, ga, gb)
		}
		// Canonical form: re-encoding the decoded accumulator must be identical.
		if again := b.AppendBinary(nil); string(again) != string(buf) {
			t.Fatalf("trial %d: re-encoding is not canonical", trial)
		}
	}

	// Specials survive the wire.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var a Acc
		a.Add(x)
		b, _, err := decodeAcc(a.AppendBinary(nil))
		if err != nil {
			t.Fatalf("special %g: %v", x, err)
		}
		got := b.Round()
		if math.IsNaN(x) != math.IsNaN(got) || (!math.IsNaN(x) && got != x) {
			t.Errorf("special %g decoded to %g", x, got)
		}
	}
}

func TestAccDecodeHostile(t *testing.T) {
	hostile := [][]byte{
		nil,
		{},
		{0},                     // finite flag but no window header
		{0, 5},                  // truncated header
		{0, 70, 1, 1, 2, 3, 4},  // offset beyond register
		{0, 60, 20, 0, 0, 0, 0}, // window overruns register
		{0, 0, 2, 1, 2, 3},      // truncated limb data
		{1, 0, 0},               // negative zero window (non-canonical)
		// Non-canonical forms the parser once accepted.
		{0, 66, 1, 0, 0, 0, 0x80},          // sign bit in the headroom limb: decoded positive, rounded to −Inf
		{1, 66, 1, 0, 0, 0, 0x80},          // the same, flagged negative
		{0, 5, 0},                          // zero at a nonzero offset
		{0, 30, 2, 0, 0, 0, 0, 1, 0, 0, 0}, // zero first limb
		{0, 30, 2, 1, 0, 0, 0, 0, 0, 0, 0}, // zero last limb
		{accFlagNaN | accFlagNeg},          // two flags
		{accFlagPInf | accFlagNInf},        // two flags
		{0x10, 0, 0},                       // unknown flag
	}
	var a Acc
	for i, buf := range hostile {
		if _, _, err := decodeAcc(buf); err == nil {
			t.Errorf("hostile input %d decoded without error", i)
		}
		// In place, a rejected form leaves the empty sum, even over a
		// spilled one.
		a.Add(1e300)
		a.Add(1e-300)
		if _, err := a.Decode(buf); err == nil || a.Round() != 0 || a.spilled() {
			t.Errorf("hostile input %d: in-place decode gave error %v, sum %g, spilled %v", i, err, a.Round(), a.spilled())
		}
	}
}

// TestAccDecodeIsCanonical is the parser's property: every form it accepts
// re-encodes to the same bytes.
func TestAccDecodeIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for trial := 0; trial < 20000; trial++ {
		buf := make([]byte, 3+4*rng.Intn(4))
		rng.Read(buf)
		buf[0] &= 0x0F
		if trial%2 == 0 {
			buf[0] &= accFlagNeg
		}
		buf[1] %= accLimbs + 2
		buf[2] = byte((len(buf) - 3) / 4)
		a, rest, err := decodeAcc(buf)
		if err != nil {
			continue
		}
		accepted++
		n := len(buf) - len(rest)
		if got := a.AppendBinary(nil); string(got) != string(buf[:n]) {
			t.Fatalf("accepted % x but re-encodes to % x", buf[:n], got)
		}
	}
	if accepted < 1000 {
		t.Fatalf("only %d of 20000 forms accepted: the property is not exercised", accepted)
	}
}

func TestAccManyAddsNormalization(t *testing.T) {
	// Hammer one limb slot past the lazy-carry window to prove normalization
	// keeps the running value exact.
	var a Acc
	const n = accNormalizeEvery + 1024
	for i := 0; i < n; i++ {
		a.Add(1)
	}
	if got := a.Round(); got != float64(n) {
		t.Fatalf("sum of %d ones = %g", n, got)
	}
}

func TestAccVecHelpers(t *testing.T) {
	a := make([]Acc, 3)
	b := make([]Acc, 3)
	AddVec(a, []float64{1, 2, 3})
	AddVec(b, []float64{10, 20, 30})
	MergeVec(a, b)
	for j, want := range []float64{11, 22, 33} {
		if got := a[j].Round(); got != want {
			t.Errorf("dim %d: %g want %g", j, got, want)
		}
	}
}

// spilled reports whether the sum has left its window for the full register.
func (a *Acc) spilled() bool { return a.wide }

// TestAccGoldenBytes pins AppendBinary's bytes for sums that fit the window
// and sums that spill, as the 67-limb register produced them.
func TestAccGoldenBytes(t *testing.T) {
	cases := []struct {
		xs   []float64
		want string
	}{
		{nil, "000000"},
		{[]float64{1, 2, 3}, "00210100001800"},
		{[]float64{-1, 2.5, -7.25}, "01210100001700"},
		{[]float64{1e300, -1e300, 3}, "00210100000c00"},
		{[]float64{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64 * 3, 1e-310}, "00000229e6708b68120000"},
		{[]float64{math.MaxFloat64, math.MaxFloat64, -1}, "0021210000fc" + strings.Repeat("ff", 120) + "bfffffffffffff0700"},
		{[]float64{1e200, 1e-200, -1e-300}, "0000370000004e190e7ac023d5" + strings.Repeat("ff", 34) + "7ff5dea942d20f03" + strings.Repeat("00", 158) + "8096d8f535c639050000"},
		{[]float64{0.1, 0.2, -0.3, 1e-17, 12345.678, -0.000123}, "001e04e092dac8a8de556622d7666325b6e6c0"},
		{[]float64{-1, -2, -3}, "01210100001800"},
		{[]float64{0.5, 0.25, math.Ldexp(1, -60)}, "001f03000040000000000000000300"},
	}
	for i, tc := range cases {
		var a Acc
		for _, x := range tc.xs {
			a.Add(x)
		}
		if got := hex.EncodeToString(a.AppendBinary(nil)); got != tc.want {
			t.Errorf("sum %d: AppendBinary = %s, want %s", i, got, tc.want)
		}
	}
}

// TestAccFitsNinetySixBytes pins the accumulator's size: the coordinator
// keeps one per dimension for life, 568 B each as a full register.
func TestAccFitsNinetySixBytes(t *testing.T) {
	if s := unsafe.Sizeof(Acc{}); s > 96 {
		t.Fatalf("unsafe.Sizeof(Acc{}) = %d B, want ≤ 96", s)
	}
}

// TestAccWindowAllocatesNothing: on data that fits the window, Add, Merge,
// Round and Reset allocate nothing, and a spilled sum reuses its register
// after Reset.
func TestAccWindowAllocatesNothing(t *testing.T) {
	var a, b Acc
	xs := []float64{0.37, -1.25e-3, 12.5, 3e-9, 0.5}
	ops := map[string]func(){
		"Add": func() {
			for _, x := range xs {
				a.Add(x)
			}
		},
		"Merge": func() { a.Merge(&b) },
		"Round": func() { sinkF = a.Round() },
		"Reset": func() { a.Reset() },
	}
	for _, x := range xs {
		b.Add(x)
	}
	for name, op := range ops {
		a.Add(1)
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s allocates %g times per run", name, n)
		}
		if a.spilled() {
			t.Errorf("%s spilled the window", name)
		}
	}
	spread := func() {
		a.Reset()
		a.Add(1e300)
		a.Add(1e-300)
	}
	spread()
	if !a.spilled() {
		t.Fatal("1e300 + 1e-300 did not spill")
	}
	if n := testing.AllocsPerRun(100, spread); n != 0 {
		t.Errorf("re-spilling after Reset allocates %g times per run", n)
	}
	a.Reset()
	a.Add(2)
	if a.spilled() || a.Round() != 2 {
		t.Errorf("Reset did not return to the window: spilled %v, sum %g", a.spilled(), a.Round())
	}
}

var sinkF float64

// decodeAcc decodes one wire form into a fresh accumulator.
func decodeAcc(buf []byte) (*Acc, []byte, error) {
	a := new(Acc)
	rest, err := a.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	return a, rest, nil
}

// TestAccSpillMatchesBigFloat drives every route into the full register —
// an addend below or above the window, a merge of windows placed apart, a
// merge of a spilled sum, a decoded wide form — and checks the sum exactly.
func TestAccSpillMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	spills := 0
	for trial := 0; trial < 300; trial++ {
		var xs []float64
		leaves := make([]Acc, 1+rng.Intn(4))
		for i := range leaves {
			scale := rng.Intn(1200) - 600
			for k := rng.Intn(6); k >= 0; k-- {
				x := math.Ldexp(rng.NormFloat64(), scale+rng.Intn(200)-100)
				xs = append(xs, x)
				leaves[i].Add(x)
			}
			if rng.Intn(3) == 0 {
				if _, err := leaves[i].Decode(leaves[i].AppendBinary(nil)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 1; i < len(leaves); i++ {
			leaves[0].Merge(&leaves[i])
		}
		if leaves[0].spilled() {
			spills++
		}
		if got, want := leaves[0].Round(), bigSum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Round()=%g want %g", trial, got, want)
		}
	}
	if spills < 50 {
		t.Fatalf("only %d of 300 trials spilled: the full register is not exercised", spills)
	}
}

// TestAccGrowthPastTheWindow doubles a sum by merging it into itself until
// carries push its top limb out of range, so normalize spills it.
func TestAccGrowthPastTheWindow(t *testing.T) {
	var a Acc
	a.Add(1.5)
	for i := 0; i < 200; i++ {
		a.Merge(&a)
	}
	if got, want := a.Round(), math.Ldexp(1.5, 200); got != want || !a.spilled() {
		t.Fatalf("1.5 doubled 200 times: Round()=%g want %g, spilled %v", got, want, a.spilled())
	}
}

// FuzzAccMatchesReference runs random programs of Add, Merge, Reset, Round,
// AppendBinary and Decode over a few accumulators and over the 67-limb
// reference side by side: every Round must match bit for bit and every wire
// form byte for byte.
func FuzzAccMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 4, 0})
	f.Add([]byte{0, 4, 0, 5, 1, 0, 1, 3, 0, 4, 0})                   // ±MaxFloat64, cancellation
	f.Add([]byte{0, 6, 0, 6, 0, 7, 3, 0, 4, 0, 2, 0, 3, 0})          // subnormals, reset
	f.Add([]byte{0, 8, 0, 0, 9, 1, 5, 0, 1, 3, 1, 4, 1})             // ±Inf, NaN
	f.Add([]byte{1, 0x40, 0x3f, 1, 0x80, 0x3f, 2, 0x10, 7, 0, 3, 0}) // windows placed apart
	f.Add([]byte{1, 0x7f, 0xfe, 1, 0x00, 0x01, 6, 1, 0, 3, 1, 4, 1}) // spreads that spill
	f.Add([]byte{0, 2, 5, 0, 1, 6, 1, 4, 0, 0, 0, 0x80})             // raw wire forms
	f.Fuzz(func(t *testing.T, prog []byte) {
		var accs [3]Acc
		var refs [3]refAcc
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			c := prog[0]
			prog = prog[1:]
			return c
		}
		var last float64
		check := func(i int) {
			got, want := accs[i].Round(), refs[i].Round()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("acc %d: Round()=%g (%#x), reference %g (%#x)", i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if g, w := accs[i].AppendBinary(nil), refs[i].AppendBinary(nil); string(g) != string(w) {
				t.Fatalf("acc %d: AppendBinary % x, reference % x", i, g, w)
			}
		}
		for len(prog) > 0 {
			op, i := next(), int(next())%len(accs)
			switch op % 8 {
			case 0: // a special or boundary value
				x := accPalette[int(next())%len(accPalette)]
				accs[i].Add(x)
				refs[i].Add(x)
				last = x
			case 1: // a two-byte mantissa at an exponent spanning the range
				m, e := next(), next()
				x := math.Ldexp(float64(int8(m))+0.5, int(e)*8-1080)
				accs[i].Add(x)
				refs[i].Add(x)
				last = x
			case 2: // a value near the last one: fits the window unless it cancels
				x := math.Ldexp(last, int(int8(next()))/4) - last
				accs[i].Add(x)
				refs[i].Add(x)
				last = x
			case 3: // exact cancellation of the last addend
				accs[i].Add(-last)
				refs[i].Add(-last)
			case 4:
				j := int(next()) % len(accs)
				accs[i].Merge(&accs[j])
				refs[i].Merge(&refs[j])
			case 5:
				accs[i].Reset()
				refs[i].Reset()
			case 6:
				check(i)
			case 7: // decode: a wire form of another accumulator, or raw bytes
				var buf []byte
				if j := next(); j < 128 {
					buf = refs[int(j)%len(refs)].AppendBinary(nil)
				} else {
					n := min(int(next())%16, len(prog))
					buf, prog = append([]byte(nil), prog[:n]...), prog[n:]
				}
				_, errA := accs[i].Decode(buf)
				r, _, errR := decodeRefAcc(buf)
				if errA != nil { // a rejected form leaves the empty sum
					refs[i].Reset()
					continue
				}
				if errR != nil {
					t.Fatalf("% x: accepted, reference rejects: %v", buf, errR)
				}
				if g := accs[i].AppendBinary(nil); string(g) != string(buf[:len(g)]) {
					t.Fatalf("% x: accepted but re-encodes to % x", buf, g)
				}
				refs[i] = *r
			}
		}
		for i := range accs {
			check(i)
		}
	})
}

// accPalette holds the values whose encodings sit at the edges: zeros,
// subnormals, the largest finite values, infinities and NaN.
var accPalette = []float64{
	0, 1, 2.5, -3, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
	0x1p-1022, -0x1.fffffffffffffp-1023, 1e-300, 1e300, 0.1, -0x1p-60,
}

// --- the reference ----------------------------------------------------------

// refAcc is the 67-limb register Acc was before it kept a window: every sum
// lives in the full register. FuzzAccMatchesReference holds Acc to its Round
// bits and wire bytes.
type refAcc struct {
	// limb holds the register in radix 2^32, least significant first, as a
	// lazily-carried two's-complement value: limb[i] weighs 2^(32i-1074).
	limb [accLimbs]int64
	// adds counts additions since the last carry normalization.
	adds int
	// posInf/negInf/nan track non-finite inputs out of band.
	posInf, negInf int
	nan            bool
}

// Reset restores the empty sum.
func (a *refAcc) Reset() { *a = refAcc{} }

// Add folds one float64 into the accumulator.
func (a *refAcc) Add(x float64) {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7FF
	mant := b & (1<<52 - 1)
	if exp == 0x7FF {
		if mant != 0 {
			a.nan = true
		} else if b>>63 == 0 {
			a.posInf++
		} else {
			a.negInf++
		}
		return
	}
	if exp == 0 {
		if mant == 0 {
			return // ±0 contributes nothing
		}
		exp = 1 // subnormal: no implied bit, same exponent bias
	} else {
		mant |= 1 << 52
	}
	// The value is mant·2^(exp-1075); register bit 0 weighs 2^-1074, so the
	// mantissa's least significant bit lands at register bit exp-1 ≥ 0.
	q := exp - 1
	idx, sh := q>>5, uint(q&31)
	hi, lo := bits.Mul64(mant, 1<<sh) // exact: ≤ 53+31 bits
	if b>>63 == 0 {
		a.limb[idx] += int64(lo & 0xFFFFFFFF)
		a.limb[idx+1] += int64(lo >> 32)
		a.limb[idx+2] += int64(hi)
	} else {
		a.limb[idx] -= int64(lo & 0xFFFFFFFF)
		a.limb[idx+1] -= int64(lo >> 32)
		a.limb[idx+2] -= int64(hi)
	}
	a.adds++
	if a.adds >= accNormalizeEvery {
		a.normalize()
	}
}

// Merge folds another accumulator into a. The other accumulator is not
// modified. Merging is exact, so any tree of merges over the same leaf
// accumulators yields the same final sum.
func (a *refAcc) Merge(b *refAcc) {
	for i := range a.limb {
		a.limb[i] += b.limb[i]
	}
	a.adds += b.adds + 1
	if a.adds >= accNormalizeEvery {
		a.normalize()
	}
	a.posInf += b.posInf
	a.negInf += b.negInf
	a.nan = a.nan || b.nan
}

// normalize propagates lazy carries so every limb lies in [0, 2^32), with the
// overall sign carried in two's complement across the register. The value is
// unchanged.
func (a *refAcc) normalize() {
	var carry int64
	for i := range a.limb {
		v := a.limb[i] + carry
		a.limb[i] = v & 0xFFFFFFFF
		carry = v >> 32 // arithmetic shift: floors negatives
	}
	// carry is now the sign extension (0 or -1); fold it back into the top
	// limb so the register remains a pure two's-complement window. The top
	// limb is headroom: finite sums never reach it with data bits.
	a.limb[accLimbs-1] += carry << 32
	a.adds = 0
}

// sign reports the register's sign after normalization: -1, 0 or +1.
func (a *refAcc) signNormalized() int {
	top := a.limb[accLimbs-1]
	if top < 0 || top>>31 != 0 { // two's-complement negative window
		return -1
	}
	for i := accLimbs - 1; i >= 0; i-- {
		if a.limb[i] != 0 {
			return 1
		}
	}
	return 0
}

// magnitude negates a normalized-negative register in place, returning the
// magnitude limbs of the absolute value in [0, 2^32) each.
func (a *refAcc) magnitude(neg bool) {
	if !neg {
		return
	}
	var borrow int64
	for i := range a.limb {
		v := -a.limb[i] + borrow
		a.limb[i] = v & 0xFFFFFFFF
		borrow = v >> 32
	}
}

// Round returns the correctly rounded (nearest-even) float64 value of the
// sum. The accumulator itself is left normalized and unchanged in value.
func (a *refAcc) Round() float64 {
	if a.nan || (a.posInf > 0 && a.negInf > 0) {
		return math.NaN()
	}
	if a.posInf > 0 {
		return math.Inf(1)
	}
	if a.negInf > 0 {
		return math.Inf(-1)
	}
	a.normalize()
	sg := a.signNormalized()
	if sg == 0 {
		return 0
	}
	// Work on a magnitude copy so the accumulator stays reusable.
	m := *a
	m.magnitude(sg < 0)
	// Locate the most significant bit.
	top := accLimbs - 1
	for top >= 0 && m.limb[top] == 0 {
		top--
	}
	p := 32*top + bits.Len64(uint64(m.limb[top])) - 1 // register bit index of the MSB
	mantBits := func(i int) uint64 {
		// Register bit i, or 0 below the register.
		if i < 0 {
			return 0
		}
		return (uint64(m.limb[i>>5]) >> uint(i&31)) & 1
	}
	if p <= 51 {
		// Subnormal range: at most 52 data bits above the register floor, all
		// exactly representable.
		var mant uint64
		for i := p; i >= 0; i-- {
			mant = mant<<1 | mantBits(i)
		}
		return ldexpSigned(mant, -1074, sg)
	}
	// Normal path: take 53 bits p..p-52, round to nearest-even on the rest.
	var mant uint64
	for i := p; i > p-53; i-- {
		mant = mant<<1 | mantBits(i)
	}
	guard := mantBits(p - 53)
	sticky := uint64(0)
	if guard == 1 {
		// Sticky = any set bit below the guard.
		for i := 0; i <= (p-54)>>5 && i < accLimbs; i++ {
			w := uint64(m.limb[i])
			if 32*i+31 > p-54 {
				w &= (1 << uint((p-54)-32*i+1)) - 1
			}
			sticky |= w
		}
		if sticky != 0 || mant&1 == 1 {
			mant++
			if mant == 1<<53 {
				mant >>= 1
				p++
			}
		}
	}
	e := p - 52 - 1074
	if e > 1023-52 {
		return math.Inf(sg)
	}
	return ldexpSigned(mant, e, sg)
}

// AppendBinary appends the canonical wire form of the sum to dst.
func (a *refAcc) AppendBinary(dst []byte) []byte {
	if a.nan || (a.posInf > 0 && a.negInf > 0) {
		return append(dst, accFlagNaN)
	}
	if a.posInf > 0 {
		return append(dst, accFlagPInf)
	}
	if a.negInf > 0 {
		return append(dst, accFlagNInf)
	}
	a.normalize()
	sg := a.signNormalized()
	m := *a
	m.magnitude(sg < 0)
	lo, hi := 0, accLimbs-1
	for lo < accLimbs && m.limb[lo] == 0 {
		lo++
	}
	for hi >= lo && m.limb[hi] == 0 {
		hi--
	}
	var flags byte
	if sg < 0 {
		flags |= accFlagNeg
	}
	dst = append(dst, flags)
	if hi < lo { // zero
		dst = append(dst, 0, 0)
		return dst
	}
	n := hi - lo + 1
	dst = append(dst, byte(lo), byte(n))
	for i := lo; i <= hi; i++ {
		v := uint32(m.limb[i])
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// DecodeAcc parses one accumulator wire form from buf, returning the
// accumulator and the remaining bytes. Malformed input — truncation, window
// out of range, or trailing garbage limbs beyond the register — returns
// ErrAccCorrupt and never panics.
func decodeRefAcc(buf []byte) (*refAcc, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, ErrAccCorrupt
	}
	flags := buf[0]
	buf = buf[1:]
	a := &refAcc{}
	switch {
	case flags&accFlagNaN != 0:
		a.nan = true
		return a, buf, nil
	case flags&accFlagPInf != 0:
		a.posInf = 1
		return a, buf, nil
	case flags&accFlagNInf != 0:
		a.negInf = 1
		return a, buf, nil
	}
	if len(buf) < 2 {
		return nil, nil, ErrAccCorrupt
	}
	lo, n := int(buf[0]), int(buf[1])
	buf = buf[2:]
	if n == 0 {
		if flags&accFlagNeg != 0 {
			// Canonical zero is non-negative; a signed zero window is forged.
			return nil, nil, ErrAccCorrupt
		}
		return a, buf, nil
	}
	if lo >= accLimbs || n > accLimbs-lo || len(buf) < 4*n {
		return nil, nil, ErrAccCorrupt
	}
	neg := flags&accFlagNeg != 0
	for i := 0; i < n; i++ {
		v := uint32(buf[4*i]) | uint32(buf[4*i+1])<<8 | uint32(buf[4*i+2])<<16 | uint32(buf[4*i+3])<<24
		if neg {
			a.limb[lo+i] = -int64(v)
		} else {
			a.limb[lo+i] = int64(v)
		}
	}
	a.adds = 1
	return a, buf[4*n:], nil
}
