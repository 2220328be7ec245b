package linalg

import (
	"errors"
	"math"
	"math/bits"
)

// Acc is an exact fixed-point superaccumulator for float64 summation. Every
// finite float64 is an integer multiple of 2^-1074, so a wide-enough
// fixed-point register can hold any finite sum of them without rounding;
// addition of integers is associative and commutative, so the accumulated
// value — and therefore Round's correctly rounded float64 — depends only on
// the multiset of added values, never on the order or grouping of the
// additions.
//
// That order-independence is what makes hierarchical coordination sound at
// the bit level (DESIGN.md "Partial-average soundness"): a tree of
// sub-coordinators can sum its leaves' partial accumulators in any shape and
// obtain exactly the accumulator — and exactly the reference point x̄ — a
// flat coordinator computes over the same vectors.
//
// The register conceptually covers the full finite float64 range: bit i
// weighs 2^(i-1074), held as 67 limbs of radix 2^32 (66 for 2^-1074 ..
// 2^1024 plus one limb of carry headroom), carried lazily in int64 slots so
// about 2^31 additions fit between normalizations (Add normalizes long
// before that). A sum whose addends lie within a factor of about 2^64 of
// the first one occupies a few adjacent limbs, so an Acc keeps an inline
// window of accWin limbs instead: the first finite nonzero addend places
// it, with room for much smaller addends below and growth above, and its
// top limb is headroom that only carries reach. An Add, Merge or Decode
// whose limbs fall outside the window moves the sum to a heap-allocated
// full register (a spill); the allocation is kept, and Reset returns the
// sum to the window. Either way the held integer is the same, so Round and
// AppendBinary do not depend on where it is held.
//
// Non-finite inputs are tracked out of band with IEEE semantics: any NaN —
// or infinities of both signs — poisons the sum to NaN, otherwise an
// infinity of one sign dominates.
//
// The zero Acc is an empty sum, ready for use. An Acc that has spilled owns
// its full register, so it must not be copied after its first spill.
type Acc struct {
	// w is the window, a lazily-carried two's-complement value: w[k] weighs
	// 2^(32(base+k)-1074). After normalize, w[:accTop] lie in [0, 2^32) and
	// w[accTop] in [-2^31, 2^31).
	w [accWin]int64
	// full is the whole register, allocated on the first spill and kept
	// across Reset; it holds the sum while wide is set.
	full *[accLimbs]int64
	// adds counts additions since the last carry normalization.
	adds int32
	// at is base+accAtBias once a window is placed, and 0 while the sum has
	// no window (empty or wide): base is then far below every limb index, so
	// Add's one fit test also sends those two cases to the slow path.
	at   uint8
	wide bool
	// posInf/negInf/nan track non-finite inputs out of band.
	posInf, negInf, nan bool
}

const (
	// accLimbs covers 2^-1074 .. 2^1024 (2098 bits → 66 limbs) plus one limb
	// of carry headroom.
	accLimbs = 67
	// accWin is the window: seven data limbs and the headroom limb accTop.
	accWin = 8
	accTop = accWin - 1
	// accPlace is the window slot of the first addend's most significant
	// limb: four limbs (≥ 128 bits) below it, two above it for growth.
	accPlace = 4
	// accAtBias offsets Acc.at from the window base.
	accAtBias = 128
	// accNormalizeEvery bounds lazy carries: each Add contributes < 2^32 to a
	// limb slot, so normalizing every 2^28 additions keeps every slot far
	// from int64 overflow even when merges stack accumulators.
	accNormalizeEvery = 1 << 28
)

// base is the register index of w[0]; -accAtBias while no window is placed.
func (a *Acc) base() int { return int(a.at) - accAtBias }

// place puts the window's w[0] at register limb b, kept inside the register.
func (a *Acc) place(b int) {
	a.at = uint8(min(max(b, 0), accLimbs-accWin) + accAtBias)
}

// Reset restores the empty sum. A full register allocated by an earlier
// spill is kept for the next one.
func (a *Acc) Reset() { *a = Acc{full: a.full} }

// Add folds one float64 into the accumulator.
func (a *Acc) Add(x float64) {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7FF
	mant := b & (1<<52 - 1)
	if exp == 0x7FF {
		if mant != 0 {
			a.nan = true
		} else if b>>63 == 0 {
			a.posInf = true
		} else {
			a.negInf = true
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
	l0, l1, l2 := int64(lo&0xFFFFFFFF), int64(lo>>32), int64(hi)
	if b>>63 != 0 {
		l0, l1, l2 = -l0, -l1, -l2
	}
	if k := idx - a.base(); uint(k) <= accTop-3 {
		w := a.w[k : k+3]
		w[0] += l0
		w[1] += l1
		w[2] += l2
	} else {
		a.addSlow(idx, [3]int64{l0, l1, l2})
	}
	a.adds++
	if a.adds >= accNormalizeEvery {
		a.normalize()
	}
}

// addSlow folds the limbs l at register index idx.. when they do not fit
// the window as a whole: it places the window on the first addend, adds
// only the nonzero limbs if those fit, and spills otherwise.
func (a *Acc) addSlow(idx int, l [3]int64) {
	if !a.wide {
		lo, hi := nonzeroSpan(l[:])
		first, last := idx+lo, idx+hi
		if a.at == 0 {
			a.place(last - accPlace)
		}
		if b := a.base(); first >= b && last < b+accTop {
			for i := first; i <= last; i++ {
				a.w[i-b] += l[i-idx]
			}
			return
		}
		a.spill()
	}
	for i, v := range l {
		a.full[idx+i] += v
	}
}

// spill moves the sum from the window to the full register.
func (a *Acc) spill() {
	if a.full == nil {
		a.full = new([accLimbs]int64)
	} else {
		*a.full = [accLimbs]int64{}
	}
	if a.at != 0 {
		copy(a.full[a.base():], a.w[:])
	}
	a.w, a.at, a.wide = [accWin]int64{}, 0, true
}

// Merge folds another accumulator into a. The other accumulator is not
// modified. Merging is exact, so any tree of merges over the same leaf
// accumulators yields the same final sum.
func (a *Acc) Merge(b *Acc) {
	a.posInf = a.posInf || b.posInf
	a.negInf = a.negInf || b.negInf
	a.nan = a.nan || b.nan
	switch {
	case b.wide:
		if !a.wide {
			a.spill()
		}
		for i, v := range b.full {
			a.full[i] += v
		}
	case b.at == 0: // b holds no finite nonzero addend
		return
	case a.wide:
		addLimbs(a.full[b.base():], b.w[:])
	case a.at == b.at:
		addLimbs(a.w[:], b.w[:])
	case a.at == 0: // a is empty: take b's window as it stands
		a.w, a.at = b.w, b.at
	default: // windows placed apart
		a.spill()
		addLimbs(a.full[b.base():], b.w[:])
	}
	a.adds += b.adds + 1
	if a.adds >= accNormalizeEvery {
		a.normalize()
	}
}

// nonzeroSpan returns the indices of l's first and last nonzero limbs, or
// lo > hi when every limb is zero.
func nonzeroSpan(l []int64) (lo, hi int) {
	lo, hi = 0, len(l)-1
	for lo <= hi && l[lo] == 0 {
		lo++
	}
	for hi >= lo && l[hi] == 0 {
		hi--
	}
	return lo, hi
}

// addLimbs adds src into dst limb by limb.
func addLimbs(dst, src []int64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

// normalize propagates lazy carries so every limb but the top lies in
// [0, 2^32), with the overall sign carried in the top limb. The value is
// unchanged. A window whose top limb leaves [-2^31, 2^31) spills, so that a
// window's magnitude always fits its accWin limbs; the spilled register is
// normalized too, since resetting adds promises limbs below 2^32.
func (a *Acc) normalize() {
	a.adds = 0
	if !a.wide {
		normalizeLimbs(a.w[:])
		if t := a.w[accTop]; t >= -1<<31 && t < 1<<31 {
			return
		}
		a.spill()
	}
	normalizeLimbs(a.full[:])
}

// normalizeLimbs carries l so every limb but the last lies in [0, 2^32); the
// last limb absorbs the final carry, keeping the two's-complement value.
func normalizeLimbs(l []int64) {
	top := len(l) - 1
	var carry int64
	for i := range l[:top] {
		v := l[i] + carry
		l[i] = v & 0xFFFFFFFF
		carry = v >> 32 // arithmetic shift: floors negatives
	}
	l[top] += carry
}

// negateIfNegative turns normalized limbs l into the limbs of their absolute
// value, each in [0, 2^32), and reports whether the value was negative.
func negateIfNegative(l []int64) bool {
	if l[len(l)-1] >= 0 {
		return false
	}
	var borrow int64
	for i := range l {
		v := -l[i] + borrow
		l[i] = v & 0xFFFFFFFF
		borrow = v >> 32
	}
	return true
}

// Round returns the correctly rounded (nearest-even) float64 value of the
// sum. The accumulator itself is left normalized and unchanged in value.
func (a *Acc) Round() float64 {
	if a.nan || (a.posInf && a.negInf) {
		return math.NaN()
	}
	if a.posInf {
		return math.Inf(1)
	}
	if a.negInf {
		return math.Inf(-1)
	}
	a.normalize()
	if a.wide {
		m := *a.full
		neg := negateIfNegative(m[:])
		return roundMagnitude(m[:], 0, neg)
	}
	m := a.w
	neg := negateIfNegative(m[:])
	return roundMagnitude(m[:], a.base(), neg)
}

// roundMagnitude rounds ±m to nearest-even, where m holds magnitude limbs in
// [0, 2^32) and m[k] weighs 2^(32(base+k)-1074).
func roundMagnitude(m []int64, base int, neg bool) float64 {
	t := len(m) - 1
	for t >= 0 && m[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	limb := func(k int) uint64 {
		if k < 0 {
			return 0
		}
		return uint64(m[k])
	}
	// Left-align the three top limbs in 128 bits: the most significant bit,
	// register bit p, lands at bit 63 of top; the bits below it follow.
	l := bits.Len64(limb(t)) - 1
	p := 32*(base+t) + l
	u, v := limb(t)<<32|limb(t-1), limb(t-2)<<32
	s := uint(31 - l)
	top, rest := u<<s|v>>(64-s), v<<s
	sg := 1
	if neg {
		sg = -1
	}
	if p <= 51 {
		// Subnormal range: at most 52 data bits above the register floor, all
		// exactly representable.
		return ldexpSigned(top>>uint(63-p), -1074, sg)
	}
	// Normal path: take 53 bits p..p-52, round to nearest-even on the rest.
	mant := top >> 11
	if top>>10&1 == 1 { // guard bit p-53
		sticky := top&(1<<10-1) | rest
		for k := t - 3; k >= 0 && sticky == 0; k-- {
			sticky |= uint64(m[k])
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

// ldexpSigned assembles sign·mant·2^e; mant ≤ 2^53 so the product is exact
// whenever it is representable.
func ldexpSigned(mant uint64, e, sg int) float64 {
	v := math.Ldexp(float64(mant), e)
	if sg < 0 {
		return -v
	}
	return v
}

// --- wire form ------------------------------------------------------------

// Acc wire form: a flags byte, then for finite sums a sparse window of
// magnitude limbs (offset, count, then count little-endian u32 limbs). The
// window form is canonical — produced from a normalized sign-magnitude
// register — so equal sums serialize identically regardless of how they were
// accumulated or whether they spilled.
const (
	accFlagNeg  = 1 << 0
	accFlagPInf = 1 << 1
	accFlagNInf = 1 << 2
	accFlagNaN  = 1 << 3
)

// ErrAccCorrupt is returned when decoding a malformed accumulator wire form.
var ErrAccCorrupt = errors.New("linalg: corrupt accumulator encoding")

// AppendBinary appends the canonical wire form of the sum to dst.
func (a *Acc) AppendBinary(dst []byte) []byte {
	if a.nan || (a.posInf && a.negInf) {
		return append(dst, accFlagNaN)
	}
	if a.posInf {
		return append(dst, accFlagPInf)
	}
	if a.negInf {
		return append(dst, accFlagNInf)
	}
	a.normalize()
	if a.wide {
		m := *a.full
		neg := negateIfNegative(m[:])
		return appendMagnitude(dst, m[:], 0, neg)
	}
	m := a.w
	neg := negateIfNegative(m[:])
	return appendMagnitude(dst, m[:], a.base(), neg)
}

// appendMagnitude appends the wire form of ±m, where m holds magnitude limbs
// and m[k] is register limb base+k.
func appendMagnitude(dst []byte, m []int64, base int, neg bool) []byte {
	lo, hi := nonzeroSpan(m)
	if hi < lo { // zero
		return append(dst, 0, 0, 0)
	}
	var flags byte
	if neg {
		flags = accFlagNeg
	}
	dst = append(dst, flags, byte(base+lo), byte(hi-lo+1))
	for _, w := range m[lo : hi+1] {
		v := uint32(w)
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// Decode replaces a's sum with the one whose wire form heads buf and
// returns the remaining bytes; a full register allocated by an earlier
// spill is kept, as Reset keeps it. Only canonical forms are accepted, so
// every accepted form re-encodes to the same bytes: one flag value, a zero
// as {0, 0, 0}, no zero first or last limb, and no sign bit in the headroom
// limb. Anything else — truncation, a window out of range, unknown flags —
// returns ErrAccCorrupt, leaves a empty (every check precedes the first
// write) and never panics.
func (a *Acc) Decode(buf []byte) ([]byte, error) {
	a.Reset()
	if len(buf) < 1 {
		return nil, ErrAccCorrupt
	}
	flags := buf[0]
	buf = buf[1:]
	switch flags {
	case accFlagNaN:
		a.nan = true
		return buf, nil
	case accFlagPInf:
		a.posInf = true
		return buf, nil
	case accFlagNInf:
		a.negInf = true
		return buf, nil
	case 0, accFlagNeg:
	default:
		return nil, ErrAccCorrupt
	}
	if len(buf) < 2 {
		return nil, ErrAccCorrupt
	}
	lo, n := int(buf[0]), int(buf[1])
	buf = buf[2:]
	if n == 0 {
		if flags != 0 || lo != 0 {
			// Canonical zero is non-negative at offset 0.
			return nil, ErrAccCorrupt
		}
		return buf, nil
	}
	if lo >= accLimbs || n > accLimbs-lo || len(buf) < 4*n {
		return nil, ErrAccCorrupt
	}
	limb := func(i int) int64 {
		return int64(uint32(buf[4*i]) | uint32(buf[4*i+1])<<8 | uint32(buf[4*i+2])<<16 | uint32(buf[4*i+3])<<24)
	}
	hi := lo + n - 1
	if limb(0) == 0 || limb(n-1) == 0 || (hi == accLimbs-1 && limb(n-1)>>31 != 0) {
		return nil, ErrAccCorrupt
	}
	a.place(min(hi-accPlace, lo))
	l, b := a.w[:], a.base()
	if hi >= b+accTop {
		a.spill()
		l, b = a.full[:], 0
	}
	for i := 0; i < n; i++ {
		if flags == accFlagNeg {
			l[lo-b+i] = -limb(i)
		} else {
			l[lo-b+i] = limb(i)
		}
	}
	a.adds = 1
	return buf[4*n:], nil
}

// AddVec folds vector x element-wise into the accumulator slice. The slice
// length must match the vector dimension.
func AddVec(acc []Acc, x []float64) {
	for j := range acc {
		acc[j].Add(x[j])
	}
}

// MergeVec folds accumulator slice b element-wise into a.
func MergeVec(a, b []Acc) {
	for j := range a {
		a[j].Merge(&b[j])
	}
}
