package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Stride:i*m.Stride+c], row)
	}
	return m
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, v := range ri {
			t.Data[j*t.Stride+i] = v
		}
	}
	return t
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

func randMatrix(r, c int, seed uint64) *Matrix {
	rng := splitMix64(seed)
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng()*2 - 1
	}
	return m
}

func randSymmetric(n int, seed uint64) *Matrix {
	a := randMatrix(n, n, seed)
	s := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Set(i, j, (a.At(i, j)+a.At(j, i))/2)
		}
	}
	return s
}

func randSPD(n int, seed uint64) *Matrix {
	a := randMatrix(n+3, n, seed)
	return MulATA(a)
}

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2)=%v, want 7.5", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("untouched element should be zero")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows layout wrong: %v", m.Data)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowSharesStorage(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1)=%v", c)
	}
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col must not alias matrix storage")
	}
}

func TestViewAliases(t *testing.T) {
	m := randMatrix(5, 5, 1)
	v := m.View(1, 2, 3, 2)
	if v.At(0, 0) != m.At(1, 2) || v.At(2, 1) != m.At(3, 3) {
		t.Fatal("view indexes wrong region")
	}
	v.Set(0, 0, 42)
	if m.At(1, 2) != 42 {
		t.Fatal("view must alias parent storage")
	}
}

func TestViewOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 2).View(1, 1, 2, 2)
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %d×%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		m := randMatrix(int(seed%7)+1, int(seed%5)+1, seed)
		return MaxAbsDiff(m.Transpose().Transpose(), m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMatrix(2, 2)
	c.Add(a, b)
	if c.At(1, 1) != 12 {
		t.Fatalf("add wrong: %v", c.Data)
	}
	c.Sub(c, b)
	if MaxAbsDiff(c, a) != 0 {
		t.Fatal("a+b-b should equal a")
	}
}

func TestScale(t *testing.T) {
	m := FromRows([][]float64{{1, -2}})
	m.Scale(-3)
	if m.At(0, 0) != -3 || m.At(0, 1) != 6 {
		t.Fatalf("scale wrong: %v", m.Data)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, 4}})
	if !almostEqual(m.FrobeniusNorm(), 5, 1e-12) {
		t.Fatalf("‖m‖_F = %v, want 5", m.FrobeniusNorm())
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	m := randMatrix(3, 3, 2)
	if MaxAbsDiff(Mul(id, m), m) > 1e-15 || MaxAbsDiff(Mul(m, id), m) > 1e-15 {
		t.Fatal("identity must be multiplicative unit")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !randSymmetric(4, 3).IsSymmetric(0) {
		t.Fatal("symmetrized matrix must be symmetric")
	}
	m := randMatrix(4, 4, 4)
	m.Set(0, 1, m.At(1, 0)+1)
	if m.IsSymmetric(1e-9) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if randMatrix(2, 3, 5).IsSymmetric(1) {
		t.Fatal("non-square matrix cannot be symmetric")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := randMatrix(3, 3, 6)
	c := m.Clone()
	c.Set(0, 0, 1234)
	if m.At(0, 0) == 1234 {
		t.Fatal("clone must not alias")
	}
}

func TestCloneOfViewCompacts(t *testing.T) {
	m := randMatrix(4, 4, 7)
	v := m.View(1, 1, 2, 2)
	c := v.Clone()
	if c.Stride != 2 || len(c.Data) != 4 {
		t.Fatalf("clone of view should be compact, got stride=%d len=%d", c.Stride, len(c.Data))
	}
	if MaxAbsDiff(c, v) != 0 {
		t.Fatal("clone content mismatch")
	}
}
