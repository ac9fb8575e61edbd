// Package mat implements the small dense linear-algebra kernels used by the
// from-scratch MLP (internal/mlp) and the reference non-ideal crossbar MVM
// (internal/reram). It is deliberately minimal: row-major dense matrices,
// vectors as []float64, and the handful of BLAS-1/2 operations the project
// needs. All operations check dimensions and panic on mismatch — a dimension
// mismatch is a programming error, not a runtime condition.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: non-positive dimensions %dx%d", rows, cols))
	}
	if rows > math.MaxInt/cols {
		panic(fmt.Sprintf("mat: dimensions %dx%d overflow int", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: FromRows with empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: len %d want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m·x. If dst is non-nil and correctly sized it is
// reused, otherwise a new slice is allocated; the result is returned either
// way.
//
// Rows are computed in pairs with one accumulator each, so the two
// dependent add chains overlap in the pipeline. Each row still sums its
// products left to right, so every element is bit-identical to a
// one-row-at-a-time loop.
func (m *Dense) MulVec(x, dst []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch: %d cols vs %d vec", m.Cols, len(x)))
	}
	if len(dst) != m.Rows {
		dst = make([]float64, m.Rows)
	}
	n := len(x)
	i := 0
	for ; i+1 < m.Rows; i += 2 {
		r0 := m.Data[i*n : (i+1)*n]
		r1 := m.Data[(i+1)*n : (i+2)*n]
		var s0, s1 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
		}
		dst[i], dst[i+1] = s0, s1
	}
	if i < m.Rows {
		var s float64
		for j, w := range m.Data[i*n : (i+1)*n] {
			s += w * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MulVecT computes y = mᵀ·x (x has length Rows, result length Cols).
func (m *Dense) MulVecT(x, dst []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecT dimension mismatch: %d rows vs %d vec", m.Rows, len(x)))
	}
	if len(dst) != m.Cols {
		dst = make([]float64, m.Cols)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
	return dst
}

// AddOuterScaled performs m += scale · a·bᵀ, the rank-1 gradient update used
// by backprop (a has length Rows, b length Cols).
func (m *Dense) AddOuterScaled(scale float64, a, b []float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("mat: AddOuterScaled mismatch: %dx%d vs %dx%d", m.Rows, m.Cols, len(a), len(b)))
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		f := scale * ai
		for j, bj := range b {
			row[j] += f * bj
		}
	}
}

// Zero resets all elements to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MaxAbs returns the largest absolute element value (0 for the zero matrix).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Vector helpers ------------------------------------------------------------

// Softmax writes the softmax of src into dst (may alias) and returns dst.
// It is numerically stabilised by max-subtraction.
//
// The first maximal entry gets exactly 1 without calling math.Exp when
// the maximum is finite: v − mx is then +0, and exp(+0) is exactly 1. A
// maximum of +Inf gives v − mx = NaN there, so a non-finite one calls
// math.Exp for every entry.
func Softmax(src, dst []float64) []float64 {
	if len(dst) != len(src) {
		dst = make([]float64, len(src))
	}
	mx, top := math.Inf(-1), -1
	for i, v := range src {
		if v > mx {
			mx, top = v, i
		}
	}
	if !(math.Abs(mx) <= math.MaxFloat64) {
		top = -1
	}
	var sum float64
	for i, v := range src {
		e := 1.0
		if i != top {
			e = math.Exp(v - mx)
		}
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// ArgMax returns the index of the largest element (first on ties).
func ArgMax(v []float64) int {
	if len(v) == 0 {
		panic("mat: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
