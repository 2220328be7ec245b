// Package interval implements certified interval arithmetic and interval
// Hessian enclosures over internal/autodiff graphs, the second eigen-engine
// behind core's pluggable EigBounder (paper §3.1 replacement; methods of
// Schulze Darup & Mönnigmann, arXiv:1206.0196 and arXiv:1507.06161).
//
// The contract throughout the package is *soundness*: every operation on
// Interval returns an enclosure of the true real-valued range of that
// operation over its input enclosures. Where the real operation is undefined
// on part of the input (log of a negative, division through zero) the result
// widens — in the limit to Entire, the whole real line — rather than ever
// excluding an attainable value. An operation whose floating-point endpoint
// computation produces NaN also widens to Entire, so enclosures are always
// ordered (Lo ≤ Hi) and never NaN.
//
// Directed (outward) rounding is not used; instead consumers that turn
// enclosures into certified scalar claims (EigBounds) inflate outward by a
// dimension- and magnitude-proportional margin that dominates the round-off
// of the evaluation passes. The soundness property harness
// (soundness_test.go) validates the end-to-end claim against exact sampled
// eigenvalues with zero tolerance.
package interval

import "math"

// Interval is a closed interval [Lo, Hi] of reals, Lo ≤ Hi, endpoints in
// the extended reals (±Inf allowed, NaN never).
type Interval struct {
	Lo, Hi float64
}

// Entire is the whole extended real line — the "no information" enclosure.
var Entire = Interval{math.Inf(-1), math.Inf(1)}

// Point returns the degenerate interval [v, v]; a NaN v yields Entire.
func Point(v float64) Interval { return fix(v, v) }

// fix assembles an interval from computed endpoints, widening to Entire when
// either endpoint is NaN (an undefined or indeterminate operation). It does
// NOT reorder endpoints: every op below is responsible for producing lo ≤ hi,
// so an ordering bug stays visible to the property harness instead of being
// silently repaired.
func fix(lo, hi float64) Interval {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return Entire
	}
	return Interval{lo, hi}
}

// Mag returns the magnitude max(|Lo|, |Hi|), the largest absolute value the
// interval contains.
func (a Interval) Mag() float64 { return math.Max(math.Abs(a.Lo), math.Abs(a.Hi)) }

// Mid returns the midpoint ½(Lo + Hi).
func (a Interval) Mid() float64 { return 0.5 * (a.Lo + a.Hi) }

// Rad returns the radius ½(Hi − Lo).
func (a Interval) Rad() float64 { return 0.5 * (a.Hi - a.Lo) }

// Add returns an enclosure of a + b.
//
//automon:hotpath
func (a Interval) Add(b Interval) Interval { return fix(a.Lo+b.Lo, a.Hi+b.Hi) }

// Sub returns an enclosure of a − b.
//
//automon:hotpath
func (a Interval) Sub(b Interval) Interval { return fix(a.Lo-b.Hi, a.Hi-b.Lo) }

// Neg returns −a.
//
//automon:hotpath
func (a Interval) Neg() Interval { return Interval{-a.Hi, -a.Lo} }

// Mul returns an enclosure of a · b (min/max over the four endpoint
// products; an indeterminate 0·∞ widens to Entire).
//
//automon:hotpath
func (a Interval) Mul(b Interval) Interval {
	p1 := a.Lo * b.Lo
	p2 := a.Lo * b.Hi
	p3 := a.Hi * b.Lo
	p4 := a.Hi * b.Hi
	return fix(math.Min(math.Min(p1, p2), math.Min(p3, p4)),
		math.Max(math.Max(p1, p2), math.Max(p3, p4)))
}

// Div returns an enclosure of a / b. A divisor interval containing zero
// yields Entire (the quotient set is unbounded or undefined there).
//
//automon:hotpath
func (a Interval) Div(b Interval) Interval {
	if b.Lo <= 0 && b.Hi >= 0 {
		return Entire
	}
	q1 := a.Lo / b.Lo
	q2 := a.Lo / b.Hi
	q3 := a.Hi / b.Lo
	q4 := a.Hi / b.Hi
	return fix(math.Min(math.Min(q1, q2), math.Min(q3, q4)),
		math.Max(math.Max(q1, q2), math.Max(q3, q4)))
}

// Square returns an enclosure of a², exploiting the sign structure so the
// result never dips below zero (tighter than a.Mul(a) under the dependency
// problem). At degenerate inputs it computes exactly v·v, bitwise equal to
// the scalar evaluator's OpSquare.
//
//automon:hotpath
func (a Interval) Square() Interval {
	switch {
	case a.Lo >= 0:
		return fix(a.Lo*a.Lo, a.Hi*a.Hi)
	case a.Hi <= 0:
		return fix(a.Hi*a.Hi, a.Lo*a.Lo)
	}
	return fix(0, math.Max(a.Lo*a.Lo, a.Hi*a.Hi))
}

// powi is the binary-exponentiation integer power, duplicated bit-for-bit
// from the scalar evaluator so degenerate intervals reproduce its values.
func powi(x float64, k int) float64 {
	if k < 0 {
		return 1 / powi(x, -k)
	}
	r := 1.0
	for k > 0 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
		k >>= 1
	}
	return r
}

// Powi returns an enclosure of a^k for integer k. Negative exponents go
// through Div, so an interval containing zero widens to Entire.
//
//automon:hotpath
func (a Interval) Powi(k int) Interval {
	switch {
	case k == 0:
		return Interval{1, 1}
	case k < 0:
		return Point(1).Div(a.Powi(-k))
	case k%2 == 1: // odd: monotone increasing
		return fix(powi(a.Lo, k), powi(a.Hi, k))
	}
	// Even power: shaped like Square.
	switch {
	case a.Lo >= 0:
		return fix(powi(a.Lo, k), powi(a.Hi, k))
	case a.Hi <= 0:
		return fix(powi(a.Hi, k), powi(a.Lo, k))
	}
	return fix(0, math.Max(powi(a.Lo, k), powi(a.Hi, k)))
}

// Exp returns an enclosure of e^a (monotone).
//
//automon:hotpath
func (a Interval) Exp() Interval { return fix(math.Exp(a.Lo), math.Exp(a.Hi)) }

// Log returns an enclosure of ln(a) over the part of a where it is defined.
// Entirely negative inputs (Hi < 0) carry no real log values at all and
// widen to Entire, matching the scalar evaluator's NaN.
//
//automon:hotpath
func (a Interval) Log() Interval {
	if a.Hi < 0 {
		return Entire
	}
	lo := math.Inf(-1)
	if a.Lo >= 0 {
		lo = math.Log(a.Lo)
	}
	return fix(lo, math.Log(a.Hi))
}

// Sqrt returns an enclosure of √a over the part of a where it is defined.
//
//automon:hotpath
func (a Interval) Sqrt() Interval {
	if a.Hi < 0 {
		return Entire
	}
	lo := 0.0
	if a.Lo >= 0 {
		lo = math.Sqrt(a.Lo)
	}
	return fix(lo, math.Sqrt(a.Hi))
}

// Tanh returns an enclosure of tanh(a) (monotone).
//
//automon:hotpath
func (a Interval) Tanh() Interval { return fix(math.Tanh(a.Lo), math.Tanh(a.Hi)) }

// Sigmoid returns an enclosure of 1/(1+e^−a) (monotone), using the exact
// formula of the scalar evaluator.
//
//automon:hotpath
func (a Interval) Sigmoid() Interval {
	return fix(1/(1+math.Exp(-a.Lo)), 1/(1+math.Exp(-a.Hi)))
}

// Relu returns an enclosure of max(a, 0).
//
//automon:hotpath
func (a Interval) Relu() Interval {
	return fix(math.Max(a.Lo, 0), math.Max(a.Hi, 0))
}

// Step returns an enclosure of the Heaviside step 1{a > 0}.
//
//automon:hotpath
func (a Interval) Step() Interval {
	lo, hi := 0.0, 0.0
	if a.Lo > 0 {
		lo = 1
	}
	if a.Hi > 0 {
		hi = 1
	}
	return Interval{lo, hi}
}

// Abs returns an enclosure of |a|.
//
//automon:hotpath
func (a Interval) Abs() Interval {
	switch {
	case a.Lo >= 0:
		return a
	case a.Hi <= 0:
		return Interval{-a.Hi, -a.Lo}
	}
	return fix(0, math.Max(-a.Lo, a.Hi))
}

// sgn is the scalar sign function, hoisted out of Sign so the hot path stays
// free of function values.
func sgn(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// Sign returns an enclosure of sign(a) ∈ {−1, 0, 1} (monotone).
//
//automon:hotpath
func (a Interval) Sign() Interval {
	return Interval{sgn(a.Lo), sgn(a.Hi)}
}

// twoPi is 2π for the trigonometric range reductions.
const twoPi = 2 * math.Pi

// containsCrit reports whether the interval contains a point p + k·period
// for some integer k.
func containsCrit(a Interval, p, period float64) bool {
	k := math.Ceil((a.Lo - p) / period)
	return p+k*period <= a.Hi
}

// trigRange encloses a bounded periodic function from its endpoint values fl
// = f(a.Lo), fh = f(a.Hi), given maxima at firstMax + 2πk and minima at
// firstMax + π + 2πk (sin: firstMax = π/2; cos: 0). Endpoint evaluation stays
// in the caller so the hot path carries no function values.
func trigRange(a Interval, fl, fh, firstMax float64) Interval {
	if math.IsInf(a.Lo, 0) || math.IsInf(a.Hi, 0) || a.Hi-a.Lo >= twoPi {
		return Interval{-1, 1}
	}
	lo := math.Min(fl, fh)
	hi := math.Max(fl, fh)
	if containsCrit(a, firstMax, twoPi) {
		hi = 1
	}
	if containsCrit(a, firstMax+math.Pi, twoPi) {
		lo = -1
	}
	return fix(lo, hi)
}

// Sin returns an enclosure of sin(a).
//
//automon:hotpath
func (a Interval) Sin() Interval {
	return trigRange(a, math.Sin(a.Lo), math.Sin(a.Hi), math.Pi/2)
}

// Cos returns an enclosure of cos(a).
//
//automon:hotpath
func (a Interval) Cos() Interval {
	return trigRange(a, math.Cos(a.Lo), math.Cos(a.Hi), 0)
}
