package linalg

import (
	"errors"
	"math"
	"sort"
)

// EigenSym computes all eigenvalues and (optionally) eigenvectors of the
// symmetric matrix a. It does not modify a. Eigenvalues are returned in
// ascending order; column j of the returned matrix (i.e. vecs.At(i, j) over i)
// is the unit eigenvector for values[j]. It is a copying, sorting wrapper
// around EigenSymInPlace.
func EigenSym(a *Mat, wantVectors bool) (values []float64, vecs *Mat, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	if n == 0 {
		return nil, NewMat(0, 0), nil
	}
	z := a.Clone()
	d := make([]float64, n)
	if err := EigenSymInPlace(z, d, make([]float64, n), wantVectors); err != nil {
		return nil, nil, err
	}
	// Sort ascending, permuting eigenvector columns along.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	values = make([]float64, n)
	for k, p := range idx {
		values[k] = d[p]
	}
	if !wantVectors {
		return values, nil, nil
	}
	vecs = NewMat(n, n)
	for k, p := range idx {
		for i := 0; i < n; i++ {
			vecs.Set(i, k, z.At(i, p))
		}
	}
	return values, vecs, nil
}

// EigenvaluesSym returns the eigenvalues of symmetric a in ascending order.
func EigenvaluesSym(a *Mat) ([]float64, error) {
	v, _, err := EigenSym(a, false)
	return v, err
}

// EigenSymInPlace is the symmetric eigensolver: the classic EISPACK pair of
// Householder reduction to tridiagonal form and implicit-shift QL iteration.
// It is O(n³) and robust for the Hessians AutoMon produces (n ≤ a few
// hundred). It overwrites the symmetric n×n matrix z and writes the
// eigenvalues, in no particular order, into values. If wantVectors, column j
// of z is then the unit eigenvector for values[j]; otherwise z's contents
// are scratch. values and work must have length n. It allocates nothing.
func EigenSymInPlace(z *Mat, values, work []float64, wantVectors bool) error {
	tred2(z, values, work, wantVectors)
	return tql2(z, values, work, wantVectors)
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form using
// Householder reflections. On return d holds the diagonal and e the
// subdiagonal (e[0] == 0). If wantVectors, z accumulates the orthogonal
// transformation; otherwise the accumulation is skipped and z's contents
// are scratch.
func tred2(z *Mat, d, e []float64, wantVectors bool) {
	n := z.Rows
	for i := 0; i < n; i++ {
		d[i] = z.At(n-1, i)
	}
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var scale, h float64
		for k := 0; k <= l; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[l]
			for j := 0; j <= l; j++ {
				d[j] = z.At(l, j)
				z.Set(i, j, 0)
				z.Set(j, i, 0)
			}
		} else {
			for k := 0; k <= l; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[l]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[l] = f - g
			for j := 0; j <= l; j++ {
				e[j] = 0
			}
			for j := 0; j <= l; j++ {
				f = d[j]
				z.Set(j, i, f)
				g = e[j] + z.At(j, j)*f
				for k := j + 1; k <= l; k++ {
					g += z.At(k, j) * d[k]
					e[k] += z.At(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j <= l; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j <= l; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j <= l; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-f*e[k]-g*d[k])
				}
				d[j] = z.At(l, j)
				z.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	e[0] = 0
	if !wantVectors {
		// The reduction leaves the tridiagonal's diagonal on z's diagonal.
		// The accumulation below reads each diagonal entry before it writes
		// it, so reading them here gives bit-identical eigenvalues.
		for i := 0; i < n; i++ {
			d[i] = z.At(i, i)
		}
		return
	}
	for i := 0; i < n-1; i++ {
		z.Set(n-1, i, z.At(i, i))
		z.Set(i, i, 1)
		l := i + 1
		if d[l] != 0 {
			for k := 0; k <= i; k++ {
				d[k] = z.At(k, l) / d[l]
			}
			for j := 0; j <= i; j++ {
				var g float64
				for k := 0; k <= i; k++ {
					g += z.At(k, l) * z.At(k, j)
				}
				for k := 0; k <= i; k++ {
					z.Set(k, j, z.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			z.Set(k, l, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = z.At(n-1, j)
		z.Set(n-1, j, 0)
	}
	z.Set(n-1, n-1, 1)
}

// tql2 finds the eigenvalues (and vectors, accumulated in z) of a symmetric
// tridiagonal matrix given by diagonal d and subdiagonal e via the implicit
// QL method. Ported from EISPACK.
func tql2(z *Mat, d, e []float64, wantVectors bool) error {
	n := z.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64 || math.Abs(e[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return errors.New("linalg: tql2 failed to converge after 50 iterations")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if wantVectors {
					for k := 0; k < n; k++ {
						f := z.At(k, i+1)
						z.Set(k, i+1, s*z.At(k, i)+c*f)
						z.Set(k, i, c*z.At(k, i)-s*f)
					}
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// EigFactor is a symmetric d×d matrix held as k ≤ d eigenpairs instead of d²
// entries: M = Σⱼ Lam[j]·vⱼvⱼᵀ, where vⱼ = V.Row(j) are orthonormal. A
// semidefinite part of low rank costs k·(d+1) floats to store or ship and
// k·d flops to apply; rank 0 (V has no rows) costs nothing.
type EigFactor struct {
	Lam []float64
	V   *Mat // k×d
}

// QuadForm returns vᵀ·M·v = Σⱼ Lam[j]·(vⱼ·v)².
func (f *EigFactor) QuadForm(v []float64) float64 {
	var s float64
	for j, lam := range f.Lam {
		p := Dot(f.V.Row(j), v)
		s += lam * p * p
	}
	return s
}

// Norm2 returns the spectral norm ‖M‖₂ = maxⱼ |Lam[j]|.
func (f *EigFactor) Norm2() float64 {
	var mx float64
	for _, lam := range f.Lam {
		mx = math.Max(mx, math.Abs(lam))
	}
	return mx
}

// Check reports why f cannot act on vectors of length d: a shape that does
// not fit (QuadForm would panic or read past a row) or a non-finite entry.
func (f *EigFactor) Check(d int) error {
	k := len(f.Lam)
	if k > d || f.V == nil || f.V.Rows != k || f.V.Cols != d || len(f.V.Data) != k*d {
		return errors.New("linalg: eigen-factor shape does not fit the dimension")
	}
	for _, vals := range [][]float64{f.Lam, f.V.Data} {
		for _, x := range vals {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return errors.New("linalg: non-finite entry in eigen-factor")
			}
		}
	}
	return nil
}

// SplitEig partitions the eigenpairs of a symmetric matrix (values[j] with
// column j of vecs, as EigenSym returns them) into its NSD part (λ < 0) and
// its PSD part (λ > 0), so that a = minus + plus (Lemma 2 of the AutoMon
// paper). Zero eigenvalues contribute to neither.
func SplitEig(values []float64, vecs *Mat) (minus, plus *EigFactor) {
	d := vecs.Rows
	minus = &EigFactor{V: &Mat{Cols: d}}
	plus = &EigFactor{V: &Mat{Cols: d}}
	for j, lam := range values {
		dst := plus
		if lam < 0 {
			dst = minus
		} else if !(lam > 0) {
			continue
		}
		dst.Lam = append(dst.Lam, lam)
		for i := 0; i < d; i++ {
			dst.V.Data = append(dst.V.Data, vecs.At(i, j))
		}
		dst.V.Rows++
	}
	return minus, plus
}
