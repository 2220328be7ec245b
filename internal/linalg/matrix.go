package linalg

import "fmt"

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat returns a zero r×c matrix.
func NewMat(r, c int) *Mat {
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shares storage).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec stores m·v into dst and returns dst. dst must not alias v.
func (m *Mat) MulVec(dst, v []float64) []float64 {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec shape %dx%d with v[%d] dst[%d]", m.Rows, m.Cols, len(v), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), v)
	}
	return dst
}

// Symmetrize overwrites m with (m + mᵀ)/2. m must be square.
func (m *Mat) Symmetrize() {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// Equalish reports whether all entries of a and b agree within tol.
func Equalish(a, b *Mat, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		d := v - b.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}
