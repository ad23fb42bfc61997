package mat

import (
	"math"
	"testing"
	"testing/quick"

	"tesla/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(2, 3, 7)
	if m.At(2, 3) != 7 {
		t.Fatalf("Set/At mismatch")
	}
	if got := m.Row(2)[3]; got != 7 {
		t.Fatalf("Row view mismatch: %g", got)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestNewFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for mismatched slice")
		}
	}()
	NewFromSlice(2, 2, []float64{1, 2, 3})
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(1)
	m := New(5, 3)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	tt := m.T().T()
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatalf("transpose involution failed at %d", i)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Mul[%d] = %g, want %g", i, c.Data[i], w)
		}
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for dimension mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rng.New(2)
	a := New(4, 6)
	for i := range a.Data {
		a.Data[i] = r.Norm()
	}
	x := make([]float64, 6)
	for i := range x {
		x[i] = r.Norm()
	}
	got := MulVec(a, x)
	bx := NewFromSlice(6, 1, append([]float64(nil), x...))
	want := Mul(a, bx)
	for i := range got {
		if !almostEqual(got[i], want.Data[i], 1e-12) {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want.Data[i])
		}
	}
}

func TestDotAndAddScaled(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %g", Dot(a, b))
	}
	AddScaled(a, 2, b)
	want := []float64{9, 12, 15}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("AddScaled[%d] = %g", i, a[i])
		}
	}
}

func TestGramMatchesXtX(t *testing.T) {
	r := rng.New(3)
	x := New(10, 4)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	g := Gram(x)
	want := Mul(x.T(), x)
	for i := range g.Data {
		if !almostEqual(g.Data[i], want.Data[i], 1e-10) {
			t.Fatalf("Gram[%d] = %g, want %g", i, g.Data[i], want.Data[i])
		}
	}
}

func TestXtYMatchesExplicit(t *testing.T) {
	r := rng.New(4)
	x := New(8, 3)
	y := New(8, 2)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	for i := range y.Data {
		y.Data[i] = r.Norm()
	}
	got := XtY(x, y)
	want := Mul(x.T(), y)
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-10) {
			t.Fatalf("XtY[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// randomSPD builds A = BᵀB + εI, guaranteed symmetric positive definite.
func randomSPD(n int, seed uint64) *Dense {
	r := rng.New(seed)
	b := New(n, n)
	for i := range b.Data {
		b.Data[i] = r.Norm()
	}
	a := Mul(b.T(), b)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += 0.5
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	a := randomSPD(6, 5)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("Cholesky failed: %v", err)
	}
	recon := Mul(ch.L, ch.L.T())
	for i := range a.Data {
		if !almostEqual(a.Data[i], recon.Data[i], 1e-9) {
			t.Fatalf("L·Lᵀ[%d] = %g, want %g", i, recon.Data[i], a.Data[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Fatalf("expected failure on indefinite matrix")
	}
}

func TestSolveVecRoundTrip(t *testing.T) {
	a := randomSPD(7, 6)
	r := rng.New(7)
	x := make([]float64, 7)
	for i := range x {
		x[i] = r.Norm()
	}
	b := MulVec(a, x)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("Cholesky failed: %v", err)
	}
	got := ch.SolveVec(b)
	for i := range x {
		if !almostEqual(got[i], x[i], 1e-8) {
			t.Fatalf("SolveVec[%d] = %g, want %g", i, got[i], x[i])
		}
	}
}

func TestSolveMultiRHS(t *testing.T) {
	a := randomSPD(5, 8)
	r := rng.New(9)
	x := New(5, 3)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	b := Mul(a, x)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("Cholesky failed: %v", err)
	}
	got := ch.Solve(b)
	for i := range x.Data {
		if !almostEqual(got.Data[i], x.Data[i], 1e-8) {
			t.Fatalf("Solve[%d] = %g, want %g", i, got.Data[i], x.Data[i])
		}
	}
}

func TestLogDetMatchesProductOfPivots(t *testing.T) {
	// diag(1,4,9) has det 36.
	a := New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 4)
	a.Set(2, 2, 9)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("Cholesky failed: %v", err)
	}
	if !almostEqual(ch.LogDet(), math.Log(36), 1e-12) {
		t.Fatalf("LogDet = %g, want %g", ch.LogDet(), math.Log(36))
	}
}

func TestSolveSPDWithJitterOnBorderline(t *testing.T) {
	// Rank-deficient Gram (duplicate columns) — SolveSPD must still return
	// some solution via jitter rather than erroring.
	x := New(4, 2)
	for i := 0; i < 4; i++ {
		x.Set(i, 0, float64(i))
		x.Set(i, 1, float64(i)) // identical column
	}
	g := Gram(x)
	b := New(2, 1)
	b.Set(0, 0, 1)
	b.Set(1, 0, 1)
	if _, err := SolveSPD(g, b); err != nil {
		t.Fatalf("SolveSPD failed on borderline matrix: %v", err)
	}
}

func TestSolveSPDProperty(t *testing.T) {
	// Property: for random SPD systems, SolveSPD recovers the solution.
	f := func(seed uint64) bool {
		n := 3 + int(seed%5)
		a := randomSPD(n, seed)
		r := rng.New(seed ^ 0xbeef)
		x := New(n, 1)
		for i := range x.Data {
			x.Data[i] = r.Norm()
		}
		b := Mul(a, x)
		got, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		for i := range x.Data {
			if !almostEqual(got.Data[i], x.Data[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	b := a.Clone()
	b.Set(0, 0, 5)
	if a.At(0, 0) != 0 {
		t.Fatalf("Clone shares storage")
	}
}

// leading returns the k×k leading principal submatrix of a.
func leading(a *Dense, k int) *Dense {
	out := New(k, k)
	for i := 0; i < k; i++ {
		copy(out.Row(i), a.Row(i)[:k])
	}
	return out
}

// TestCholeskyExtendMatchesFull is the incremental-append property the GP
// fitter relies on: growing a factor one symmetric row at a time must equal
// refactorizing the full matrix from scratch (to 1e-12; in fact the two are
// bit-identical because Extend replays NewCholesky's exact arithmetic).
func TestCholeskyExtendMatchesFull(t *testing.T) {
	for _, n := range []int{2, 5, 9, 16} {
		a := randomSPD(n, uint64(n))
		ch, err := NewCholesky(leading(a, 2))
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k < n; k++ {
			row := a.Row(k)[:k]
			if err := ch.Extend(row, a.At(k, k)); err != nil {
				t.Fatalf("n=%d extend to %d: %v", n, k+1, err)
			}
		}
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if ch.L.Rows != n {
			t.Fatalf("extended factor order %d, want %d", ch.L.Rows, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := math.Abs(ch.L.At(i, j) - full.L.At(i, j))
				if d > 1e-12 {
					t.Fatalf("n=%d: L[%d,%d] incremental %g vs full %g (|Δ|=%g)",
						n, i, j, ch.L.At(i, j), full.L.At(i, j), d)
				}
			}
		}
		// The extended factor must be a working factorization, not just
		// numerically close: round-trip a solve.
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i) - 1.5
		}
		x := ch.SolveVec(b)
		ax := MulVec(a, x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-8) {
				t.Fatalf("extended solve round-trip: (Ax)[%d] = %g, want %g", i, ax[i], b[i])
			}
		}
	}
}

// factorWithCap factors a into a backing array of the given capacity, so a
// test can choose between Extend's in-capacity and regrow paths.
func factorWithCap(t *testing.T, a *Dense, capacity int) *Cholesky {
	t.Helper()
	work := &Dense{Rows: a.Rows, Cols: a.Cols, Data: make([]float64, len(a.Data), capacity)}
	copy(work.Data, a.Data)
	ch, err := CholeskyInPlace(work)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestCholeskyExtendRejectsIndefinite: appending a row that breaks positive
// definiteness must error and leave the existing factor intact and usable,
// whether the new row was staged in the factor's spare capacity or in a
// regrown array.
func TestCholeskyExtendRejectsIndefinite(t *testing.T) {
	a := randomSPD(5, 3)
	for _, c := range []struct {
		name     string
		capacity int
	}{{"in-capacity", 25}, {"regrow", 16}} {
		ch := factorWithCap(t, leading(a, 4), c.capacity)
		l := ch.L
		before := l.Clone()
		// d = 0 with a non-trivial cross row cannot be SPD.
		if err := ch.Extend([]float64{1, 2, 3, 4}, 0); err == nil {
			t.Fatalf("%s: indefinite extension accepted", c.name)
		}
		if ch.L != l || l.Rows != 4 || l.Cols != 4 || len(l.Data) != 16 {
			t.Fatalf("%s: failed extension reshaped the factor to %dx%d (%d values)", c.name, l.Rows, l.Cols, len(l.Data))
		}
		for i := range before.Data {
			if l.Data[i] != before.Data[i] {
				t.Fatalf("%s: failed extension mutated the factor at %d", c.name, i)
			}
		}
		// The factor stays usable: a valid extension still matches a full
		// factorization bit for bit.
		if err := ch.Extend(a.Row(4)[:4], a.At(4, 4)); err != nil {
			t.Fatalf("%s: valid extension after a rejected one: %v", c.name, err)
		}
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range full.L.Data {
			if ch.L.Data[i] != v {
				t.Fatalf("%s: L[%d] = %g after recovery, full factor %g", c.name, i, ch.L.Data[i], v)
			}
		}
	}
}

// TestCholeskyExtendInCapacityAllocatesNothing: with room for the grown
// factor in its backing array, Extend stages and restrides in place.
func TestCholeskyExtendInCapacityAllocatesNothing(t *testing.T) {
	a := randomSPD(8, 5)
	ch := factorWithCap(t, leading(a, 7), 64)
	saved := append([]float64(nil), ch.L.Data...)
	row, d := a.Row(7)[:7], a.At(7, 7)
	if n := testing.AllocsPerRun(100, func() {
		ch.L.Rows, ch.L.Cols, ch.L.Data = 7, 7, ch.L.Data[:49]
		copy(ch.L.Data, saved)
		if err := ch.Extend(row, d); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("in-capacity Extend allocates %g times per call", n)
	}
	if ch.L.Rows != 8 {
		t.Fatalf("extended order %d, want 8", ch.L.Rows)
	}
}

func TestCholeskyInPlaceMatchesNewCholesky(t *testing.T) {
	a := randomSPD(7, 11)
	ref, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	work := a.Clone()
	ch, err := CholeskyInPlace(work)
	if err != nil {
		t.Fatal(err)
	}
	if ch.L != work {
		t.Fatalf("CholeskyInPlace must factor into its argument")
	}
	for i := range ref.L.Data {
		if ch.L.Data[i] != ref.L.Data[i] {
			t.Fatalf("in-place factor differs at %d: %g vs %g", i, ch.L.Data[i], ref.L.Data[i])
		}
	}
}

// TestSolveVecToAliasing: the allocation-free solves must give bit-identical
// results whether or not dst aliases b.
func TestSolveVecToAliasing(t *testing.T) {
	a := randomSPD(8, 21)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 8)
	for i := range b {
		b[i] = math.Sin(float64(i) + 0.5)
	}
	want := ch.SolveVec(b)
	got := append([]float64(nil), b...)
	ch.SolveVecTo(got, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliased SolveVecTo[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestForwardSolveQuadraticForm: dot(L⁻¹b, L⁻¹b) must equal bᵀA⁻¹b — the
// half-solve identity the GP posterior variance uses.
func TestForwardSolveQuadraticForm(t *testing.T) {
	a := randomSPD(9, 33)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 9)
	for i := range b {
		b[i] = math.Cos(1.7 * float64(i))
	}
	v := make([]float64, 9)
	ch.ForwardSolveTo(v, b)
	want := Dot(b, ch.SolveVec(b))
	if !almostEqual(Dot(v, v), want, 1e-9*math.Abs(want)+1e-12) {
		t.Fatalf("‖L⁻¹b‖² = %g, bᵀA⁻¹b = %g", Dot(v, v), want)
	}
	// Aliased form matches too.
	alias := append([]float64(nil), b...)
	ch.ForwardSolveTo(alias, alias)
	for i := range v {
		if alias[i] != v[i] {
			t.Fatalf("aliased ForwardSolveTo[%d] = %g, want %g", i, alias[i], v[i])
		}
	}
}
