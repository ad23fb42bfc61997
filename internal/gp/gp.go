// Package gp implements the fixed-noise Gaussian-process regression that
// TESLA's modeling-error-aware Bayesian optimizer uses as its surrogate
// (paper §3.3): a GP with a Matérn-5/2 covariance kernel and per-observation
// noise variances supplied by the bootstrap-based prediction-error monitor.
// Objective and constraint get separate GPs, mirroring the paper's use of
// BoTorch's FixedNoiseGP.
//
// Hyperparameters (length scale, output scale, constant mean) are selected
// by maximizing the exact log marginal likelihood over a small log-spaced
// grid — ample for the optimizer's one-dimensional set-point domain and
// deterministic, which keeps control decisions reproducible.
//
// The linear algebra is organized for the optimizer's hot loop, where one
// evaluation is appended per iteration and the surrogate is refit each time
// (the same bottleneck BoTorch attacks with cached Cholesky factors). Within
// one optimization run every kernel value is computed once:
//
//   - a kernel store holds the unit-variance Matérn values per lengthscale:
//     the observation×observation base every output-scale grid cell scales
//     its kernel from (5 builds for a 5×3 grid instead of 15), and a
//     candidate×observation table that grows by one column per observation.
//     One Fitter holds the inputs once and fits several targets over them
//     (the optimizer's objective and constraint), so all targets read one
//     store; a change of data span empties it;
//   - each grid cell retains its Cholesky factor and Σ log Lᵢᵢ between fits;
//     when one observation arrives and the grid is unchanged, the factor is
//     extended in place with one new row in O(n²) (bit-identical to a full
//     refactorization) instead of being rebuilt in O(n³);
//   - Fit returns a view whose posterior blocks reuse its target's scratch
//     and resume the previous call's forward solves when the winning cell
//     was only extended; Snapshot copies out the GP a caller keeps;
//   - the output-scale grid anchors to the target variance with ×2/÷2
//     hysteresis rather than tracking it exactly, so the grid — and with it
//     the cached factors — stays stable while new observations only nudge
//     the sample variance.
package gp

import (
	"fmt"
	"math"
	"slices"

	"tesla/internal/mat"
)

// Matern52 evaluates the Matérn-5/2 kernel for distance r, unit variance.
func Matern52(r, lengthscale float64) float64 {
	if lengthscale <= 0 {
		panic("gp: non-positive lengthscale")
	}
	s := math.Sqrt(5) * math.Abs(r) / lengthscale
	return (1 + s + s*s/3) * math.Exp(-s)
}

// GP is a fitted fixed-noise Gaussian process over scalar inputs.
//
// A GP returned by Fitter.Fit is a view of the fitter's state: it reads
// kernel values from the fitter's store and its posterior blocks live in its
// target's scratch, so it stays valid only until the fitter's next Observe
// or the next Fit of the same target, and it is not safe for concurrent
// use. Snapshot turns it into an immutable GP that is; Fit (the one-shot
// form) returns one.
type GP struct {
	x []float64 // observed inputs

	// Hyperparameters.
	Lengthscale float64
	OutputScale float64 // kernel variance σ²
	Mean        float64 // constant mean

	chol  *mat.Cholesky // factor of K + diag(noise)
	alpha []float64     // (K+Σ)⁻¹ (y − mean)

	span float64 // data span that set the lengthscale grid
	cell int     // grid cell of the hyperparameters: li·numOS + oi
	f    *Fitter // owning fitter of a view; nil on a snapshot
	t    *target // the view's target in f
}

// Fit trains a fixed-noise GP on (x, y) with per-point noise variances.
// Hyperparameters are picked by marginal likelihood over a grid scaled to
// the data span. At least two observations are required; non-finite inputs
// are rejected. One-shot fits are unaffected by the incremental machinery:
// a fresh Fitter anchors its grid to the data exactly as the original
// implementation did.
func Fit(x, y, noise []float64) (*GP, error) {
	n := len(x)
	if len(y) != n || len(noise) != n {
		return nil, fmt.Errorf("gp: length mismatch x=%d y=%d noise=%d", n, len(y), len(noise))
	}
	f := NewFitter(1)
	for i := range x {
		if err := f.Observe(x[i], Obs{y[i], noise[i]}); err != nil {
			return nil, fmt.Errorf("gp: observation %d: %w", i, err)
		}
	}
	g, err := f.Fit(0)
	if err != nil {
		return nil, err
	}
	return g.Snapshot(), nil
}

// Snapshot returns an independent copy of g: later fits do not change it,
// and it is safe for concurrent use.
func (g *GP) Snapshot() *GP {
	s := *g
	s.f, s.t = nil, nil
	s.chol = &mat.Cholesky{L: g.chol.L.Clone()}
	s.alpha = append([]float64(nil), g.alpha...)
	return &s
}

const (
	numLS    = 5
	numOS    = 3
	numCells = numLS * numOS
)

// FitterStats counts how the fitter resolved each Fit call of one target —
// the observability hook for the incremental-factor fast path.
type FitterStats struct {
	Fits         uint64 // Fit calls that produced a GP
	FullRefits   uint64 // fits that rebuilt every grid cell from scratch
	Extends      uint64 // fits served by O(n²) one-row factor extensions
	CellFailures uint64 // grid cells lost to non-SPD kernels (cumulative)
}

// fitCell is one (lengthscale, outputscale) grid cell with its retained
// factorization.
type fitCell struct {
	chol   mat.Cholesky
	alive  bool    // false once the cell's kernel failed to factor at this grid
	logSum float64 // Σ log Lᵢᵢ of chol, summed in LogDet's order
	epoch  uint64  // bumped by every refactorization; extensions keep it
}

// Fitter incrementally fits fixed-noise GPs to one or more targets observed
// at the same growing input sequence. It retains each target's per-cell
// Cholesky factors, and one kernel store for all targets, across fits so
// that the append-one-observation-then-refit pattern of the Bayesian
// optimizer costs O(grid·n²) instead of O(grid·n³).
//
// A Fitter is not safe for concurrent use, and neither are the GP views its
// Fit returns (see GP).
type Fitter struct {
	x    []float64
	k    kernels // unit-variance Matérn values over x
	capN int     // observations the storage is reserved for (Reserve)
	row  []float64
	ts   []target
}

// target is one fitted output: its observations, its output-scale grid and
// retained cell factors, and the view and posterior scratch of its fits.
type target struct {
	y, noise []float64
	osGrid   [numOS]float64
	anchor   float64 // sticky output-scale anchor (see Fit)

	cells [numCells]fitCell
	cellN int // observations covered by the cell factors (0 = invalid)

	resid, alpha, bestAlpha []float64
	view                    GP
	post                    postScratch
	stats                   FitterStats
}

// Obs is one target's observed value at an input, with its noise variance.
type Obs struct{ Y, Noise float64 }

// NewFitter returns an empty incremental fitter for the given number of
// targets.
func NewFitter(targets int) *Fitter {
	if targets < 1 {
		panic("gp: a fitter needs at least one target")
	}
	return &Fitter{ts: make([]target, targets)}
}

// Reserve sizes the fitter's storage for n observations, so that observing
// and fitting up to n observations does not regrow it. It is an
// optimization only; fits are unchanged.
func (f *Fitter) Reserve(n int) {
	f.capN = max(f.capN, n)
	f.x = reserve(f.x, n)
	for i := range f.ts {
		t := &f.ts[i]
		t.y = reserve(t.y, n)
		t.noise = reserve(t.noise, n)
	}
	k := &f.k
	k.capN = max(k.capN, n)
	for li := range k.obs {
		k.obs[li] = reserve(k.obs[li], n*(n+1)/2)
	}
}

// Observe appends one input with one observation per target, in target
// order. Non-finite values are rejected, and nothing is stored then: a NaN
// fed into the kernel matrix would poison every grid cell and surface only
// as an unexplained "not positive definite" failure at the next fit.
func (f *Fitter) Observe(x float64, obs ...Obs) error {
	if len(obs) != len(f.ts) {
		return fmt.Errorf("gp: %d observations for %d targets", len(obs), len(f.ts))
	}
	for t, o := range obs {
		if !isFinite(x) || !isFinite(o.Y) || !isFinite(o.Noise) {
			return fmt.Errorf("gp: non-finite observation x=%g y=%g noise=%g (target %d)", x, o.Y, o.Noise, t)
		}
	}
	f.x = append(f.x, x)
	for i, o := range obs {
		t := &f.ts[i]
		t.y = append(t.y, o.Y)
		t.noise = append(t.noise, o.Noise)
	}
	return nil
}

// NumObs returns the number of observations accumulated so far.
func (f *Fitter) NumObs() int { return len(f.x) }

// Stats reports how target t's fits were resolved so far.
func (f *Fitter) Stats(t int) FitterStats { return f.ts[t].stats }

// Fit selects target t's hyperparameters by exact log marginal likelihood
// over the grid and returns the winning GP as a view of the fitter (valid
// until the next Observe, or the next Fit of t; see GP). Successive calls
// reuse the stored kernel values and extend the retained factors when
// exactly one observation arrived and the grid is unchanged.
func (f *Fitter) Fit(t int) (*GP, error) {
	n := len(f.x)
	if n < 2 {
		return nil, fmt.Errorf("gp: need at least 2 observations, got %d", n)
	}
	ft := &f.ts[t]
	span := spread(f.x)
	if span <= 0 {
		span = 1
	}
	yVar := variance(ft.y)
	if yVar <= 1e-12 {
		yVar = 1e-12
	}
	// Output-scale anchor with hysteresis: refresh only when the sample
	// variance leaves [anchor/2, 2·anchor]. The grid spans anchor/4..4·anchor,
	// so within the hysteresis band some grid point is always within a factor
	// of two of the true variance — the same coverage an exact anchor gives —
	// while the grid (and the cached factors keyed on it) stays stable as
	// observations accumulate.
	anchor := ft.anchor
	if anchor == 0 || yVar > 2*anchor || yVar < anchor/2 {
		anchor = yVar
	}

	if f.k.setSpan(span) {
		for i := range f.ts {
			f.ts[i].cellN = 0 // the lengthscale grid moved
		}
	}
	if anchor != ft.anchor {
		ft.anchor = anchor
		ft.osGrid = [numOS]float64{anchor / 4, anchor, 4 * anchor}
		ft.cellN = 0 // factors embed the output scale
	}

	mean := meanOf(ft.y)
	ft.resid = resize(ft.resid, n)
	for i, v := range ft.y {
		ft.resid[i] = v - mean
	}
	ft.alpha = resize(ft.alpha, n)
	ft.bestAlpha = resize(ft.bestAlpha, n)

	switch {
	case ft.cellN == n:
		// Fit without new observations: factors are already current.
	case ft.cellN == n-1:
		f.extendCells(ft, n)
		ft.stats.Extends++
	default:
		f.refitCells(ft, n)
		ft.stats.FullRefits++
	}
	ft.cellN = n

	best := math.Inf(-1)
	bestIdx := -1
	logNorm := 0.5 * float64(n) * math.Log(2*math.Pi)
	for li := 0; li < numLS; li++ {
		for oi := 0; oi < numOS; oi++ {
			c := &ft.cells[li*numOS+oi]
			if !c.alive {
				continue
			}
			c.chol.SolveVecTo(ft.alpha, ft.resid)
			ll := -0.5*mat.Dot(ft.resid, ft.alpha) - 0.5*(2*c.logSum) - logNorm
			if ll > best {
				best = ll
				bestIdx = li*numOS + oi
				copy(ft.bestAlpha, ft.alpha)
			}
		}
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("gp: no hyperparameter setting produced a positive-definite kernel")
	}
	ft.stats.Fits++
	ft.view = GP{
		x:           f.x[:n:n],
		Lengthscale: f.k.lsGrid[bestIdx/numOS],
		OutputScale: ft.osGrid[bestIdx%numOS],
		Mean:        mean,
		chol:        &ft.cells[bestIdx].chol,
		alpha:       ft.bestAlpha,
		span:        span,
		cell:        bestIdx,
		f:           f,
		t:           ft,
	}
	return &ft.view, nil
}

// refitCells rebuilds every grid cell of t's factorization at size n by
// scaling the stored base into the cell's (reused) storage and factoring in
// place.
func (f *Fitter) refitCells(t *target, n int) {
	for li := 0; li < numLS; li++ {
		base := f.k.obsBase(f.x, li, n)
		for oi, os := range t.osGrid {
			c := &t.cells[li*numOS+oi]
			c.epoch++
			k := cellMatrix(c, n, f.capN)
			for i := 0; i < n; i++ {
				off := i * (i + 1) / 2
				dst := k.Row(i)[:i+1]
				for j, v := range base[off : off+i+1] {
					dst[j] = os * v
				}
				dst[i] += t.noise[i] + 1e-9*os
			}
			if _, err := mat.CholeskyInPlace(k); err != nil {
				c.alive = false
				t.stats.CellFailures++
				continue
			}
			c.alive = true
			c.logSum = 0
			for i := 0; i < n; i++ {
				c.logSum += math.Log(k.Data[i*n+i])
			}
		}
	}
}

// extendCells grows every live cell of t's factor by the newest
// observation's row. A cell whose extension fails would also fail a full
// refactorization at the same pivot (the arithmetic is identical), so it is
// retired rather than rebuilt.
func (f *Fitter) extendCells(t *target, n int) {
	i := n - 1
	f.row = resize(f.row, i)
	row := f.row
	for li := 0; li < numLS; li++ {
		base := f.k.obsBase(f.x, li, n)[i*(i+1)/2:]
		for oi, os := range t.osGrid {
			c := &t.cells[li*numOS+oi]
			if !c.alive {
				continue
			}
			for j := 0; j < i; j++ {
				row[j] = os * base[j]
			}
			d := os*base[i] + (t.noise[i] + 1e-9*os)
			if err := c.chol.Extend(row, d); err != nil {
				c.alive = false
				t.stats.CellFailures++
				continue
			}
			c.logSum += math.Log(c.chol.L.Data[i*n+i])
		}
	}
}

// cellMatrix returns the cell's factor storage resized to n×n, reusing its
// backing array when large enough and leaving room to extend it otherwise:
// to capN×capN, or to twice n² without a reservation.
func cellMatrix(c *fitCell, n, capN int) *mat.Dense {
	if c.chol.L == nil {
		c.chol.L = &mat.Dense{}
	}
	k := c.chol.L
	if cap(k.Data) < n*n {
		k.Data = make([]float64, n*n, max(2*n*n, capN*capN))
	}
	k.Rows, k.Cols, k.Data = n, n, k.Data[:n*n]
	return k
}

// kernels stores unit-variance Matérn values over one growing input
// sequence, for every lengthscale of the grid: the packed
// observation×observation base the cell factors are built from, and a
// candidate×observation table for posterior blocks. Both grow by one row or
// column per observation and are filled lazily per lengthscale, so each
// value is computed at most once while the inputs only grow. The inputs are
// passed in by the caller (the fitter's, or a snapshot's).
type kernels struct {
	span   float64        // span the lengthscale grid was built for
	lsGrid [numLS]float64 // lengthscale grid for span
	capN   int            // observations reserved for (Fitter.Reserve)

	// obs[li] is a packed lower triangle: row i occupies entries
	// [i(i+1)/2, i(i+1)/2+i]; obsN[li] rows are filled.
	obs  [numLS][]float64
	obsN [numLS]int

	// cross[li] holds crossN[li] observation columns of len(cands) values:
	// column i is k(cands_j, x_i) for every candidate j.
	cands  []float64
	cross  [numLS][]float64
	crossN [numLS]int
}

// setSpan moves the lengthscale grid to span and empties the store if the
// span changed, which it reports.
func (k *kernels) setSpan(span float64) bool {
	if span == k.span {
		return false
	}
	k.span = span
	k.lsGrid = [numLS]float64{span / 24, span / 12, span / 6, span / 3, span}
	k.obsN = [numLS]int{}
	k.crossN = [numLS]int{}
	return true
}

// obsBase returns the packed base for lengthscale li over x, filled to n
// rows.
func (k *kernels) obsBase(x []float64, li, n int) []float64 {
	b := reserve(k.obs[li][:k.obsN[li]*(k.obsN[li]+1)/2], n*(n+1)/2)
	ls := k.lsGrid[li]
	for i := k.obsN[li]; i < n; i++ {
		for j := 0; j <= i; j++ {
			b = append(b, Matern52(x[i]-x[j], ls))
		}
	}
	k.obs[li] = b
	k.obsN[li] = max(k.obsN[li], n)
	return b
}

// crossTable returns the candidate×observation table for lengthscale li over
// cands and x, filled to n observation columns.
func (k *kernels) crossTable(x []float64, li int, cands []float64, n int) []float64 {
	if !slices.Equal(k.cands, cands) {
		k.cands = append(k.cands[:0], cands...)
		k.crossN = [numLS]int{}
	}
	nc := len(cands)
	t := reserve(k.cross[li][:k.crossN[li]*nc], k.capN*nc)
	ls := k.lsGrid[li]
	for i := k.crossN[li]; i < n; i++ {
		for _, c := range cands {
			t = append(t, Matern52(c-x[i], ls))
		}
	}
	k.cross[li] = t
	k.crossN[li] = max(k.crossN[li], n)
	return t
}

// Posterior returns the posterior mean and variance at a single input. The
// variance uses the half-solve identity k*ᵀ(K+Σ)⁻¹k* = ‖L⁻¹k*‖², one
// forward substitution instead of a full solve.
func (g *GP) Posterior(x float64) (mean, variance float64) {
	n := len(g.x)
	var kStar []float64
	if g.t != nil {
		g.t.post.kStar = resize(g.t.post.kStar, n)
		kStar = g.t.post.kStar
	} else {
		kStar = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		kStar[i] = g.OutputScale * Matern52(x-g.x[i], g.Lengthscale)
	}
	mean = g.Mean + mat.Dot(kStar, g.alpha)
	g.chol.ForwardSolveTo(kStar, kStar)
	variance = g.OutputScale - mat.Dot(kStar, kStar)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// JointPosterior returns the posterior mean vector and covariance matrix at
// the given inputs, for coherent function draws inside the QMC NEI
// acquisition.
//
// The cross-covariance block is solved as one blocked triangular solve
// V = L⁻¹·K*ᵀ and the covariance formed as K** − VᵀV — half the floating
// point work of the former per-row full solves (m forward substitutions
// instead of m forward+backward pairs) and a constant number of allocations
// instead of two per row.
func (g *GP) JointPosterior(xs []float64) (mean []float64, cov *mat.Dense) {
	n := len(g.x)
	m := len(xs)
	mean = make([]float64, m)
	v := mat.New(m, n) // row a: k*_a, then overwritten in place by L⁻¹k*_a
	for a := 0; a < m; a++ {
		row := v.Row(a)
		for i := 0; i < n; i++ {
			row[i] = g.OutputScale * Matern52(xs[a]-g.x[i], g.Lengthscale)
		}
		mean[a] = g.Mean + mat.Dot(row, g.alpha)
		g.chol.ForwardSolveTo(row, row)
	}
	cov = mat.New(m, m)
	floor := 1e-10 * g.OutputScale
	for a := 0; a < m; a++ {
		va := v.Row(a)
		for b := a; b < m; b++ {
			val := g.OutputScale*Matern52(xs[a]-xs[b], g.Lengthscale) - mat.Dot(va, v.Row(b))
			if a == b && val < floor {
				val = floor
			}
			cov.Set(a, b, val)
			cov.Set(b, a, val)
		}
	}
	return mean, cov
}

// PosteriorBlocks is the joint posterior over [training inputs ∪ cands] in
// the block form the NEI acquisition samples from: the dense covariance over
// the (few) training inputs, the cross-covariance from each candidate to the
// training inputs, and each candidate's marginal variance. The
// candidate×candidate covariance block — the bulk of the full joint matrix —
// is never formed: a draw of the candidates conditioned on the training-input
// draw (f_j = μ_j + w_jᵀ·z_obs + s_j·z_j with w_j = L⁻¹·cross_j) has exactly
// the right per-candidate joint law with the observations, which is all a
// per-candidate improvement integrand can depend on.
type PosteriorBlocks struct {
	MeanObs  []float64  // posterior mean at the training inputs (n)
	MeanCand []float64  // posterior mean at the candidates (nc)
	CovObs   *mat.Dense // posterior covariance over the training inputs (n×n)
	Cross    *mat.Dense // nc×n: row j = posterior cov(cand_j, training inputs)
	VarCand  []float64  // posterior marginal variance per candidate (nc)
}

// JointPosteriorBlocks computes PosteriorBlocks for the training inputs plus
// the given candidates. It shares JointPosterior's blocked-solve core but
// does O((n+nc)·n) kernel work instead of O((n+nc)²).
//
// On a view (a GP from Fitter.Fit) the kernel values come from the fitter's
// store, and the returned blocks are its target's scratch, overwritten by
// the next call on a view of the same target. When the view's grid cell has only been
// extended since the previous call, over the same candidates, the forward
// solves and their dot products resume from the rows already solved (see
// postScratch), which is O(n) instead of O(n²) per candidate. On a
// snapshot everything is computed afresh into new blocks.
func (g *GP) JointPosteriorBlocks(cands []float64) *PosteriorBlocks {
	n := len(g.x)
	nc := len(cands)
	var ps *postScratch
	var k *kernels
	if g.t != nil {
		ps, k = &g.t.post, &g.f.k
	} else {
		ps, k = &postScratch{}, &kernels{capN: n}
	}
	k.setSpan(g.span)
	base := k.obsBase(g.x, g.cell/numOS, n)
	cross := k.crossTable(g.x, g.cell/numOS, cands, n)
	from := ps.resume(g, cands)
	w := ps.w
	b := &ps.blocks
	b.MeanObs = resize(b.MeanObs, n)
	b.MeanCand = resize(b.MeanCand, nc)
	b.CovObs = resizeDense(b.CovObs, n, n)
	b.Cross = resizeDense(b.Cross, nc, n)
	b.VarCand = resize(b.VarCand, nc)
	floor := 1e-10 * g.OutputScale

	// Raw prior covariance over the training inputs, kept in CovObs until the
	// posterior correction below overwrites it in place.
	for a := 0; a < n; a++ {
		row := b.CovObs.Row(a)
		for i := a; i < n; i++ {
			v := g.OutputScale * base[i*(i+1)/2+a]
			row[i] = v
			b.CovObs.Data[i*n+a] = v
		}
	}
	// vObs row a becomes L⁻¹·k*_a; rows solved before resume at from.
	for a := 0; a < n; a++ {
		va := ps.vObs[a*w : a*w+n]
		start := resumeAt(a, from)
		copy(va[start:], b.CovObs.Row(a)[start:])
		b.MeanObs[a] = g.Mean + mat.Dot(b.CovObs.Row(a), g.alpha)
		g.chol.ForwardSolveFrom(va, va, start)
	}
	for a := 0; a < n; a++ {
		va := ps.vObs[a*w : a*w+n]
		row := b.CovObs.Row(a)
		for i := a; i < n; i++ {
			d := ps.dot(&ps.covDot[a*w+i], va, ps.vObs[i*w:i*w+n], resumeAt(i, from))
			v := row[i] - d
			if a == i && v < floor {
				v = floor
			}
			row[i] = v
			b.CovObs.Data[i*n+a] = v
		}
	}

	for j := 0; j < nc; j++ {
		kc := b.Cross.Row(j) // raw k(cand_j, x_i), finalized in place below
		for i := 0; i < n; i++ {
			kc[i] = g.OutputScale * cross[i*nc+j]
		}
		b.MeanCand[j] = g.Mean + mat.Dot(kc, g.alpha)
		vj := ps.vCand[j*w : j*w+n]
		g.chol.ForwardSolveFrom(vj, kc, from)
		v := g.OutputScale - ps.dot(&ps.varDot[j], vj, vj, from)
		if v < floor {
			v = floor
		}
		b.VarCand[j] = v
		for a := 0; a < n; a++ {
			kc[a] -= ps.dot(&ps.crossDot[j*w+a], vj, ps.vObs[a*w:a*w+n], resumeAt(a, from))
		}
	}
	ps.n = n
	return b
}

// postScratch is the posterior workspace of a target's views: the blocks
// JointPosteriorBlocks returns, and the forward solves and dot products
// behind them, kept so that the next call can resume them.
//
// Every kept quantity is a prefix computation over the observation index:
// entry i of a forward solve L⁻¹·b reads only the leading i+1 rows of L, and
// mat.Dot adds its terms in index order. After the factor of the same grid
// cell was extended from n₀ to n rows, with the same kernel values, the
// first n₀ entries of each solve and the partial dot products over them are
// exactly what a fresh computation would produce first; resuming adds only
// the new terms, in the same order, so the result is bit-identical.
type postScratch struct {
	blocks PosteriorBlocks

	// What the kept values were computed for.
	n     int       // observations solved
	w     int       // row stride of the kept matrices (≥ n)
	cell  int       // grid cell of the factor
	epoch uint64    // that cell's epoch
	cands []float64 // candidates

	vObs     []float64 // row a: L⁻¹·k*_a over the observations (stride w)
	vCand    []float64 // row j: L⁻¹·k(cand_j, x)
	covDot   []float64 // [a·w+i], i ≥ a: vObs_a · vObs_i
	crossDot []float64 // [j·w+a]: vCand_j · vObs_a
	varDot   []float64 // [j]: vCand_j · vCand_j
	kStar    []float64 // Posterior's scratch
}

// resume returns how many leading entries of the kept solves stay valid for
// g over cands, and makes room for n observations (0 means recompute all).
func (ps *postScratch) resume(g *GP, cands []float64) int {
	n, nc := len(g.x), len(cands)
	from := 0
	if t := g.t; t != nil && ps.cell == g.cell && ps.epoch == t.cells[g.cell].epoch &&
		ps.n <= n && n <= ps.w && slices.Equal(ps.cands, cands) {
		from = ps.n
	}
	if n > ps.w {
		ps.w = n
		if g.f != nil {
			ps.w = max(n, g.f.capN)
		}
	}
	if g.t != nil {
		ps.cell, ps.epoch = g.cell, g.t.cells[g.cell].epoch
	}
	ps.cands = append(ps.cands[:0], cands...)
	w := ps.w
	for _, v := range []struct {
		s *[]float64
		n int
	}{{&ps.vObs, w * w}, {&ps.covDot, w * w}, {&ps.vCand, nc * w}, {&ps.crossDot, nc * w}, {&ps.varDot, nc}} {
		if cap(*v.s) < v.n {
			*v.s = make([]float64, v.n)
		}
		*v.s = (*v.s)[:v.n]
	}
	return from
}

// dot returns a·b, resuming from *kept, the dot product over the first
// `from` entries, and stores the full product back into *kept. The terms are
// added exactly as mat.Dot adds them.
func (ps *postScratch) dot(kept *float64, a, b []float64, from int) float64 {
	s := 0.0
	if from > 0 {
		s = *kept
	}
	for i := from; i < len(a); i++ {
		s += a[i] * b[i]
	}
	*kept = s
	return s
}

// resumeAt is where row i's kept computation resumes: rows of observations
// added since (i ≥ from) start over.
func resumeAt(i, from int) int {
	if i < from {
		return from
	}
	return 0
}

// NumObs returns the number of observations in the GP.
func (g *GP) NumObs() int { return len(g.x) }

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, 2*n)
	}
	return s[:n]
}

// reserve returns s with capacity for at least n elements.
func reserve(s []float64, n int) []float64 {
	if n > cap(s) {
		return slices.Grow(s, n-len(s))
	}
	return s
}

// resizeDense reshapes d (nil allowed) to r×c, reusing its storage.
func resizeDense(d *mat.Dense, r, c int) *mat.Dense {
	if d == nil {
		d = &mat.Dense{}
	}
	d.Rows, d.Cols, d.Data = r, c, resize(d.Data, r*c)
	return d
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func variance(xs []float64) float64 {
	m := meanOf(xs)
	var s float64
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	return s / float64(len(xs))
}

func spread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
