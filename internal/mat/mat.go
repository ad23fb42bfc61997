// Package mat provides the small dense linear-algebra kernel used throughout
// the TESLA reproduction: row-major float64 matrices, matrix products, Gram
// accumulation, Cholesky factorization and triangular solves.
//
// The package is deliberately minimal — it implements exactly the operations
// required by ridge regression (normal equations), Gaussian-process inference
// and the neural/tree baselines, with cache-friendly loop orders but no
// further micro-optimization. All operations are deterministic.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64.
//
// The zero value is an empty matrix. Use New or NewFromSlice to construct a
// sized matrix. Data is stored in a single backing slice so that rows are
// contiguous: element (i, j) lives at Data[i*Cols+j].
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewFromSlice wraps data as an r×c matrix. The slice is used directly (not
// copied) and must have length r*c.
func NewFromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: slice length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a subslice sharing the matrix backing store.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Mul computes a*b into a new matrix using an ikj loop order so the inner
// loop walks both operands contiguously.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec computes a*x for a vector x of length a.Cols.
func MulVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AddScaled performs dst += alpha*src element-wise on equal-length vectors.
func AddScaled(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// Gram computes Xᵀ·X (the Gram matrix) for the n×d design matrix X.
// Only the upper triangle is accumulated, then mirrored; the accumulation is
// rank-1 per row which keeps the working set to a single sample row.
func Gram(x *Dense) *Dense {
	d := x.Cols
	g := New(d, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for a, va := range row {
			if va == 0 {
				continue
			}
			grow := g.Row(a)
			for b := a; b < d; b++ {
				grow[b] += va * row[b]
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			g.Data[b*d+a] = g.Data[a*d+b]
		}
	}
	return g
}

// XtY computes Xᵀ·Y where X is n×d and Y is n×m, producing d×m.
func XtY(x, y *Dense) *Dense {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("mat: XtY row mismatch %d vs %d", x.Rows, y.Rows))
	}
	out := New(x.Cols, y.Cols)
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		yrow := y.Row(i)
		for a, xv := range xrow {
			if xv == 0 {
				continue
			}
			orow := out.Row(a)
			for b, yv := range yrow {
				orow[b] += xv * yv
			}
		}
	}
	return out
}

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	L *Dense
}

// NewCholesky factors the symmetric positive definite matrix a.
// It returns an error if a pivot is non-positive (a not SPD within floating
// point), in which case the caller typically retries with added jitter.
func NewCholesky(a *Dense) (*Cholesky, error) {
	return CholeskyInPlace(a.Clone())
}

// CholeskyInPlace factors a in place, overwriting it with the lower factor L
// (upper triangle zeroed). Only the lower triangle of a is read, so callers
// may build just that half. On error a is left partially overwritten; callers
// that retry with jitter must refill the matrix from their source first.
//
// CholeskyInPlace is small enough to inline, so a caller that keeps only
// the error (its factor is a) allocates nothing.
func CholeskyInPlace(a *Dense) (*Cholesky, error) {
	if err := factorLower(a); err != nil {
		return nil, err
	}
	return &Cholesky{L: a}, nil
}

// factorLower overwrites a with its lower Cholesky factor.
func factorLower(a *Dense) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	l := a
	for j := 0; j < n; j++ {
		ljj := l.Data[j*n+j]
		lrowj := l.Row(j)[:j]
		ljj -= Dot(lrowj, lrowj)
		if ljj <= 0 || math.IsNaN(ljj) {
			return fmt.Errorf("mat: matrix not positive definite at pivot %d (value %g)", j, ljj)
		}
		ljj = math.Sqrt(ljj)
		l.Data[j*n+j] = ljj
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			v := l.Data[i*n+j] - Dot(l.Row(i)[:j], lrowj)
			l.Data[i*n+j] = v * inv
		}
	}
	// Zero the upper triangle so L is a clean lower factor.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Data[i*n+j] = 0
		}
	}
	return nil
}

// Extend grows the factorization in place by one symmetric row: given the
// factor of an n×n matrix A, it produces the factor of the (n+1)×(n+1)
// matrix [[A, k], [kᵀ, d]] in O(n²) — a forward substitution for the new
// off-diagonal row plus one pivot — instead of the O(n³) full refactorization.
// The result is bit-identical to refactorizing the extended matrix from
// scratch (the leading rows of a Cholesky factor depend only on the leading
// submatrix, and the new row is computed with the same dot/reciprocal
// sequence NewCholesky uses).
//
// The new row is computed directly into its final place, offset n·(n+1) of
// the (n+1)×(n+1) layout. When the backing array has capacity for that
// layout, the offset lies past the n² values of the current factor, so the
// row is staged in the array's own spare capacity; the old rows are then
// restrided in place and c.L is updated rather than replaced, and Extend
// allocates nothing. Otherwise the row is staged in a fresh array of twice
// the needed size, into which the old rows are copied. On a non-positive
// pivot the factorization is left unchanged and an error is returned.
func (c *Cholesky) Extend(k []float64, d float64) error {
	n := c.L.Rows
	if len(k) != n {
		panic(fmt.Sprintf("mat: Extend row length %d vs order %d", len(k), n))
	}
	m := n + 1
	old := c.L.Data
	inPlace := cap(old) >= m*m
	var data []float64
	if inPlace {
		data = old[:m*m]
	} else {
		data = make([]float64, m*m, 2*m*m)
	}
	row := data[n*m : m*m]
	for j := 0; j < n; j++ {
		ljj := old[j*n+j]
		v := k[j] - Dot(old[j*n:j*n+j], row[:j])
		row[j] = v * (1 / ljj)
	}
	pivot := d - Dot(row[:n], row[:n])
	if pivot <= 0 || math.IsNaN(pivot) {
		return fmt.Errorf("mat: extended matrix not positive definite (pivot %g)", pivot)
	}
	row[n] = math.Sqrt(pivot)

	if inPlace {
		// Restride rows n-1..1 backward (row i moves from offset i·n to i·m,
		// strictly rightward, so a reverse walk never overwrites unread data).
		for i := n - 1; i >= 1; i-- {
			copy(data[i*m:i*m+i+1], data[i*n:i*n+i+1])
		}
	} else {
		for i := 0; i < n; i++ {
			copy(data[i*m:i*m+i+1], old[i*n:i*n+i+1])
		}
	}
	// Zero each old row's upper triangle (restriding leaves stale values
	// behind the diagonal).
	for i := 0; i < n; i++ {
		z := data[i*m+i+1 : (i+1)*m]
		for j := range z {
			z[j] = 0
		}
	}
	c.L.Rows, c.L.Cols, c.L.Data = m, m, data
	return nil
}

// SolveVec solves A·x = b for x given the factorization of A.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	x := make([]float64, len(b))
	c.SolveVecTo(x, b)
	return x
}

// SolveVecTo solves A·x = b into dst without allocating. dst may alias b.
func (c *Cholesky) SolveVecTo(dst, b []float64) {
	n := c.L.Rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("mat: SolveVecTo lengths %d,%d vs order %d", len(dst), len(b), n))
	}
	// Forward substitution L·y = b (y lands in dst).
	for i := 0; i < n; i++ {
		dst[i] = (b[i] - Dot(c.L.Row(i)[:i], dst[:i])) / c.L.Data[i*n+i]
	}
	// Back substitution Lᵀ·x = y, in place over y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.Data[k*n+i] * dst[k]
		}
		dst[i] = s / c.L.Data[i*n+i]
	}
}

// ForwardSolveTo computes dst = L⁻¹·b (forward substitution only) without
// allocating. dst may alias b. Combined with a dot product this evaluates
// quadratic forms bᵀA⁻¹b in half the work of a full solve.
func (c *Cholesky) ForwardSolveTo(dst, b []float64) { c.ForwardSolveFrom(dst, b, 0) }

// ForwardSolveFrom finishes a forward substitution whose first `from`
// entries dst already holds. Entry i of L⁻¹·b depends only on b[:i+1] and
// the leading i+1 rows of L, which Extend never changes, so a solve against
// a factor that has since been extended resumes where it stopped and is
// bit-identical to solving from scratch. Only b[from:] is read.
func (c *Cholesky) ForwardSolveFrom(dst, b []float64, from int) {
	n := c.L.Rows
	if len(b) != n || len(dst) != n || from < 0 || from > n {
		panic(fmt.Sprintf("mat: ForwardSolveFrom lengths %d,%d from %d vs order %d", len(dst), len(b), from, n))
	}
	for i := from; i < n; i++ {
		dst[i] = (b[i] - Dot(c.L.Row(i)[:i], dst[:i])) / c.L.Data[i*n+i]
	}
}

// Solve solves A·X = B column-by-column for a d×m right-hand side. One
// scratch column is reused across all right-hand sides.
func (c *Cholesky) Solve(b *Dense) *Dense {
	n := c.L.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("mat: Solve rhs rows %d vs order %d", b.Rows, n))
	}
	out := New(n, b.Cols)
	col := make([]float64, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.Data[i*b.Cols+j]
		}
		c.SolveVecTo(col, col)
		for i := 0; i < n; i++ {
			out.Data[i*out.Cols+j] = col[i]
		}
	}
	return out
}

// LogDet returns log(det(A)) = 2·Σ log L_ii for the factored matrix.
func (c *Cholesky) LogDet() float64 {
	n := c.L.Rows
	var s float64
	for i := 0; i < n; i++ {
		s += math.Log(c.L.Data[i*n+i])
	}
	return 2 * s
}

// SolveSPD solves A·X = B for a symmetric positive definite A, adding
// exponentially growing diagonal jitter on factorization failure. It is the
// workhorse for ridge normal equations and GP inference where A is SPD by
// construction but can be borderline in floating point.
func SolveSPD(a, b *Dense) (*Dense, error) {
	jitter := 0.0
	base := meanDiag(a) * 1e-12
	if base <= 0 {
		base = 1e-12
	}
	for attempt := 0; attempt < 8; attempt++ {
		work := a
		if jitter > 0 {
			work = a.Clone()
			for i := 0; i < work.Rows; i++ {
				work.Data[i*work.Cols+i] += jitter
			}
		}
		ch, err := NewCholesky(work)
		if err == nil {
			return ch.Solve(b), nil
		}
		if jitter == 0 {
			jitter = base
		} else {
			jitter *= 100
		}
	}
	return nil, fmt.Errorf("mat: SolveSPD failed even with jitter %g", jitter)
}

func meanDiag(a *Dense) float64 {
	n := a.Rows
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(a.Data[i*a.Cols+i])
	}
	return s / float64(n)
}
