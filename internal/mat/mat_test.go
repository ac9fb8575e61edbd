package mat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"odin/internal/check"
	"odin/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseZeroed(t *testing.T) {
	t.Parallel()
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	t.Parallel()
	// 4×2⁶² wraps to 0 elements and 4×(2⁶²+1) to 4, so an overflowing
	// shape must panic before make sees the product.
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-2, 3}, {4, 1 << 62}, {1 << 62, 4}, {4, 1<<62 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDense(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewDense(dims[0], dims[1])
		}()
	}
}

func TestFromRowsAndAt(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("At returned wrong values: %v %v", m.At(0, 2), m.At(1, 0))
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("Set did not stick")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVec(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := m.MulVec([]float64{1, -1}, nil)
	want := []float64{-1, -1, -1}
	for i := range want {
		if !almostEq(y[i], want[i], 1e-12) {
			t.Fatalf("MulVec[%d] = %v want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecReusesDst(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{2, 0}, {0, 2}})
	dst := make([]float64, 2)
	got := m.MulVec([]float64{3, 4}, dst)
	if &got[0] != &dst[0] {
		t.Fatal("MulVec did not reuse correctly sized dst")
	}
	if got[0] != 6 || got[1] != 8 {
		t.Fatalf("wrong result %v", got)
	}
}

func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	t.Parallel()
	src := rng.New(7)
	m := NewDense(5, 3)
	for i := range m.Data {
		m.Data[i] = src.NormFloat64()
	}
	x := []float64{0.5, -1.5, 2, 0, 1}
	got := m.MulVecT(x, nil)
	// Explicit transpose multiply.
	want := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			want[j] += m.At(i, j) * x[i]
		}
	}
	for j := range want {
		if !almostEq(got[j], want[j], 1e-12) {
			t.Fatalf("MulVecT[%d] = %v want %v", j, got[j], want[j])
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	t.Parallel()
	m := NewDense(2, 3)
	m.AddOuterScaled(2, []float64{1, -1}, []float64{1, 2, 3})
	want := [][]float64{{2, 4, 6}, {-2, -4, -6}}
	for i := range want {
		for j := range want[i] {
			if !almostEq(m.At(i, j), want[i][j], 1e-12) {
				t.Fatalf("(%d,%d)=%v want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestZero(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{6, -12}})
	a.Zero()
	if a.At(0, 0) != 0 || a.At(0, 1) != 0 {
		t.Fatalf("Zero wrong: %v", a.Data)
	}
}

func TestCloneIsDeep(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases original data")
	}
}

func TestMaxAbs(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, -7}, {3, 2}})
	if a.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v want 7", a.MaxAbs())
	}
	if NewDense(2, 2).MaxAbs() != 0 {
		t.Fatal("MaxAbs of zero matrix not 0")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	t.Parallel()
	f := func(a, b, c float64) bool {
		// Clamp wild quick inputs to something finite.
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 50)
		}
		in := []float64{clamp(a), clamp(b), clamp(c)}
		out := Softmax(in, nil)
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	t.Parallel()
	in := []float64{1, 2, 3}
	shifted := []float64{101, 102, 103}
	a := Softmax(in, nil)
	b := Softmax(shifted, nil)
	for i := range a {
		if !almostEq(a[i], b[i], 1e-12) {
			t.Fatalf("softmax not shift invariant at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSoftmaxExtremeValuesStable(t *testing.T) {
	t.Parallel()
	out := Softmax([]float64{1000, -1000, 0}, nil)
	if math.IsNaN(out[0]) || !almostEq(out[0], 1, 1e-9) {
		t.Fatalf("softmax overflow not handled: %v", out)
	}
}

func TestArgMax(t *testing.T) {
	t.Parallel()
	if ArgMax([]float64{1, 5, 3}) != 1 {
		t.Fatal("ArgMax wrong")
	}
	if ArgMax([]float64{2, 2, 2}) != 0 {
		t.Fatal("ArgMax tie should pick first")
	}
}

func TestNorm2(t *testing.T) {
	t.Parallel()
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
}

// Property: MulVec is linear — m·(αx+βy) = α·m·x + β·m·y.
func TestMulVecLinearityProperty(t *testing.T) {
	t.Parallel()
	src := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+src.Intn(8), 1+src.Intn(8)
		m := NewDense(rows, cols)
		for i := range m.Data {
			m.Data[i] = src.NormFloat64()
		}
		x := make([]float64, cols)
		y := make([]float64, cols)
		for i := range x {
			x[i], y[i] = src.NormFloat64(), src.NormFloat64()
		}
		alpha, beta := src.NormFloat64(), src.NormFloat64()
		combo := make([]float64, cols)
		for i := range combo {
			combo[i] = alpha*x[i] + beta*y[i]
		}
		lhs := m.MulVec(combo, nil)
		mx := m.MulVec(x, nil)
		my := m.MulVec(y, nil)
		for i := range lhs {
			want := alpha*mx[i] + beta*my[i]
			if !almostEq(lhs[i], want, 1e-9*(1+math.Abs(want))) {
				t.Fatalf("linearity violated at trial %d idx %d: %v vs %v", trial, i, lhs[i], want)
			}
		}
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong-length x did not panic")
		}
	}()
	NewDense(2, 3).MulVec([]float64{1, 2}, nil)
}

// specialFloat draws a value that is often one of the inputs that expose a
// change of summation order: signed zeros, infinities, NaN and subnormals.
func specialFloat(r *rng.Source) float64 {
	switch r.Intn(20) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1 - 2*r.Intn(2))
	case 3:
		return math.NaN()
	case 4:
		return float64(1-2*r.Intn(2)) * math.SmallestNonzeroFloat64 * float64(1+r.Intn(1<<20))
	case 5:
		return r.NormFloat64() * 1e300
	default:
		return r.NormFloat64()
	}
}

// TestPropMulVecMatchesRowLoop pins that MulVec, which computes rows in
// pairs, returns exactly what a one-row-at-a-time left-to-right loop
// returns, for every shape from 1×1 to 9×17. Results must match bit for
// bit, which is what decides −0 and subnormal outputs; a NaN matches any
// NaN, since IEEE 754 leaves the payload of an operation on two NaNs to
// the hardware and the compiler may commute a multiply or add.
func TestPropMulVecMatchesRowLoop(t *testing.T) {
	t.Parallel()
	const maxRows, maxCols = 9, 17
	type input struct{ M, X []float64 }
	gen := check.Gen[input]{Generate: func(t *check.T) input {
		in := input{M: make([]float64, maxRows*maxCols), X: make([]float64, maxCols)}
		for i := range in.M {
			in.M[i] = specialFloat(t.Rng)
		}
		for i := range in.X {
			in.X[i] = specialFloat(t.Rng)
		}
		return in
	}}
	check.RunConfig(t, check.Config{Trials: 200}, gen, func(in input) error {
		for rows := 1; rows <= maxRows; rows++ {
			for cols := 1; cols <= maxCols; cols++ {
				m := &Dense{Rows: rows, Cols: cols, Data: in.M[:rows*cols]}
				x := in.X[:cols]
				got := m.MulVec(x, make([]float64, rows))
				for i := 0; i < rows; i++ {
					var want float64
					for j, w := range m.Row(i) {
						want += w * x[j]
					}
					g := got[i]
					if math.Float64bits(g) != math.Float64bits(want) && !(math.IsNaN(g) && math.IsNaN(want)) {
						return fmt.Errorf("%dx%d row %d: MulVec %v (%#x), row loop %v (%#x)",
							rows, cols, i, g, math.Float64bits(g), want, math.Float64bits(want))
					}
				}
			}
		}
		return nil
	})
}

// TestExpZeroIsOne pins the premise of Softmax's shortcut: math.Exp(+0) is
// exactly 1.
func TestExpZeroIsOne(t *testing.T) {
	t.Parallel()
	if got := math.Exp(0); math.Float64bits(got) != math.Float64bits(1) {
		t.Errorf("math.Exp(0) = %v (%#x), want exactly 1", got, math.Float64bits(got))
	}
}

// TestPropSoftmaxMatchesExpLoop pins that Softmax, which writes 1 for its
// first maximal entry instead of calling math.Exp when the maximum is
// finite, returns exactly what calling math.Exp on every entry returns.
// Hand-built vectors run first: tied maxima, a signed-zero tie, a +Inf, a
// NaN and an all −Inf vector; at +Inf and −Inf maxima every entry must
// still call math.Exp. Then
// generated vectors of 1 to 8 entries drawn from ±0, ±Inf, NaN,
// subnormals and ±1e300-scale values, with a repeated entry in half of
// them. A NaN matches any NaN, as in TestPropMulVecMatchesRowLoop.
func TestPropSoftmaxMatchesExpLoop(t *testing.T) {
	t.Parallel()
	expLoop := func(z []float64) []float64 {
		p := make([]float64, len(z))
		mx := math.Inf(-1)
		for _, v := range z {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for i, v := range z {
			p[i] = math.Exp(v - mx)
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		return p
	}
	same := func(z []float64) error {
		got, want := Softmax(z, nil), expLoop(z)
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				return fmt.Errorf("Softmax(%v)[%d] = %v (%#x), want %v (%#x)", z, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
		return nil
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, z := range [][]float64{
		{0.5, 2, 2, -1, 2},
		{0, math.Copysign(0, -1), -3},
		{1, inf, 2},
		{nan, 1, 3, 3},
		{-inf, -inf},
	} {
		if err := same(z); err != nil {
			t.Fatal(err)
		}
	}
	gen := check.Gen[[]float64]{Generate: func(t *check.T) []float64 {
		z := make([]float64, 1+t.Rng.Intn(8))
		for i := range z {
			z[i] = specialFloat(t.Rng)
		}
		if len(z) > 1 && t.Rng.Bernoulli(0.5) {
			z[t.Rng.Intn(len(z))] = z[t.Rng.Intn(len(z))]
		}
		return z
	}}
	check.RunConfig(t, check.Config{Trials: 500}, gen, same)
}
