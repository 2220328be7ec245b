// Package linalg provides the dense linear-algebra substrate used by AutoMon:
// vectors, symmetric matrices, and symmetric eigensolvers (Householder
// tridiagonalization with implicit-shift QL, plus a cyclic Jacobi solver used
// as an independent cross-check in tests).
//
// Everything is float64 and allocation-conscious: hot paths accept
// destination slices so the monitoring protocol can run without garbage
// pressure on every data update.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow for extreme magnitudes.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// CopyShiftSqDist copies src into dst and returns ‖(src + shift) − c‖₂²,
// where each src[i] + shift[i] is rounded as Add rounds it: the squared
// distance from c of the point Add(·, src, shift) would build. One pass over
// four independent accumulators does both, so a caller that stores a vector
// and measures how far it moved reads it once. dst must not alias shift or c;
// it may alias src. It panics if the lengths differ.
func CopyShiftSqDist(dst, src, shift, c []float64) float64 {
	n := len(src)
	if len(dst) != n || len(shift) != n || len(c) != n {
		panic(fmt.Sprintf("linalg: CopyShiftSqDist length mismatch %d, %d, %d, %d", len(dst), n, len(shift), len(c)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		x, sh, cc, o := src[i:i+4:i+4], shift[i:i+4:i+4], c[i:i+4:i+4], dst[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = x[0], x[1], x[2], x[3]
		d0 := x[0] + sh[0] - cc[0]
		d1 := x[1] + sh[1] - cc[1]
		d2 := x[2] + sh[2] - cc[2]
		d3 := x[3] + sh[3] - cc[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := src[i] + shift[i] - c[i]
		dst[i] = src[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Add stores a+b into dst and returns dst. dst may alias a or b.
func Add(dst, a, b []float64) []float64 {
	for i := range a {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Sub stores a-b into dst and returns dst. dst may alias a or b.
func Sub(dst, a, b []float64) []float64 {
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Scale stores s*a into dst and returns dst. dst may alias a.
func Scale(dst []float64, s float64, a []float64) []float64 {
	for i := range a {
		dst[i] = s * a[i]
	}
	return dst
}

// AXPY stores a*x + y into dst and returns dst. dst may alias x or y.
func AXPY(dst []float64, a float64, x, y []float64) []float64 {
	for i := range x {
		dst[i] = a*x[i] + y[i]
	}
	return dst
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

// Mean stores the element-wise mean of the vectors into dst and returns dst.
// It panics if vecs is empty.
func Mean(dst []float64, vecs ...[]float64) []float64 {
	if len(vecs) == 0 {
		panic("linalg: Mean of zero vectors")
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, v := range vecs {
		for i, x := range v {
			dst[i] += x
		}
	}
	inv := 1 / float64(len(vecs))
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// Clamp stores min(hi, max(lo, v)) element-wise into dst and returns dst.
func Clamp(dst, v, lo, hi []float64) []float64 {
	for i, x := range v {
		if x < lo[i] {
			x = lo[i]
		}
		if x > hi[i] {
			x = hi[i]
		}
		dst[i] = x
	}
	return dst
}

// InBox reports whether every coordinate of v lies in [lo[i], hi[i]].
func InBox(v, lo, hi []float64) bool {
	for i, x := range v {
		if x < lo[i] || x > hi[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest |a[i]-b[i]|.
func MaxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}
