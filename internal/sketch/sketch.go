// Package sketch implements the AMS linear stream sketch in the turnstile
// model, the local vector of AutoMon's sketch composition.
//
// §5 of the AutoMon paper observes that the technique is compatible with
// most sketches because they are linear: "AutoMon can monitor a linear
// sketch by defining f as the query function and x as the sketched data
// structure, since x̄ = 1/n Σ xᵢ". Concretely, each node sketches its local
// substream; the average of the node sketches is exactly the sketch of the
// average frequency vector, so running AutoMon on the query function over
// the sketch vector monitors the global statistic with sub-linear local
// state. The AMS second-moment query (funcs.AMSF2) is a quadratic form of the
// sketch, so AutoMon selects ADCD-E and the approximation guarantee is
// deterministic.
package sketch

import (
	"errors"
	"fmt"
)

// mix64 is SplitMix64: a deterministic 64-bit finalizer used for bucket and
// sign hashing, so sketches are reproducible across processes and mergeable
// whenever they share a seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Update is one turnstile event: Item's frequency changes by Delta. It is
// the event currency of the ingestion layer (internal/ingest) and the
// stream-level event generators.
type Update struct {
	Item  uint64
	Delta float64
}

// AMS is an AMS (Alon–Matias–Szegedy) "Tug-of-War" sketch with Rows × Cols
// counters: every row r keeps S[r][c] = Σ_i s_r(i)·freq(i)·[h_r(i) = c],
// and the second moment F₂ is estimated per row by Σ_c S[r][c]², with the
// final estimate the mean across rows. (The mean keeps the query a smooth
// quadratic form — the classical median is not differentiable — and is
// unbiased as well.)
type AMS struct {
	Rows, Cols int
	seed       uint64
	// rowSeed[r] = mix64(r + seed) is precomputed so the per-event Add loop
	// finalizes one mix64 per row instead of two; the cell function is
	// bit-identical to hashing item ^ mix64(row + seed) on the fly.
	rowSeed []uint64
	data    []float64
}

// NewAMS creates an AMS sketch. Sketches with equal shapes and seeds are
// mergeable: node sketches average coordinate-wise into the sketch of the
// average stream.
func NewAMS(rows, cols int, seed uint64) (*AMS, error) {
	if rows <= 0 || cols <= 0 {
		return nil, errors.New("sketch: AMS needs positive shape")
	}
	rs := make([]uint64, rows)
	for r := range rs {
		rs[r] = mix64(uint64(r) + seed)
	}
	return &AMS{Rows: rows, Cols: cols, seed: seed, rowSeed: rs, data: make([]float64, rows*cols)}, nil
}

// cell returns the (bucket, sign) of an item within a row.
func (a *AMS) cell(row int, item uint64) (col int, sign float64) {
	v := mix64(item ^ a.rowSeed[row])
	col = int(v % uint64(a.Cols))
	if (v>>32)&1 == 1 {
		return col, 1
	}
	return col, -1
}

// Add applies a turnstile update: item frequency changes by delta (which
// may be negative).
func (a *AMS) Add(item uint64, delta float64) {
	for r := 0; r < a.Rows; r++ {
		c, s := a.cell(r, item)
		a.data[r*a.Cols+c] += s * delta
	}
}

// AddTouched is Add that also writes, per row, the flat index of the counter
// it moved into touched (len(touched) == Rows).
func (a *AMS) AddTouched(item uint64, delta float64, touched []int) {
	for r := range touched {
		c, s := a.cell(r, item)
		i := r*a.Cols + c
		a.data[i] += s * delta
		touched[r] = i
	}
}

// Vector exposes the sketch as the flat local vector AutoMon monitors. The
// returned slice aliases the sketch's storage; copy before mutating.
func (a *AMS) Vector() []float64 { return a.data }

// Dim returns the monitored vector length.
func (a *AMS) Dim() int { return a.Rows * a.Cols }

// MismatchError reports two sketches whose hash families or shapes disagree.
// Averaging such sketches is not an approximation error — the buckets are
// unrelated and every query on the result is silently wrong — so a group
// that would average them is rejected with this typed error.
type MismatchError struct {
	RowsA, ColsA int
	RowsB, ColsB int
	SeedA, SeedB uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("sketch: incompatible AMS sketches (shape %dx%d seed %#x vs shape %dx%d seed %#x)",
		e.RowsA, e.ColsA, e.SeedA, e.RowsB, e.ColsB, e.SeedB)
}

// Compatible reports whether two AMS sketches share a hash family and shape,
// returning a typed *MismatchError when they do not.
func (a *AMS) Compatible(b *AMS) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.seed != b.seed {
		return &MismatchError{
			RowsA: a.Rows, ColsA: a.Cols, SeedA: a.seed,
			RowsB: b.Rows, ColsB: b.Cols, SeedB: b.seed}
	}
	return nil
}
