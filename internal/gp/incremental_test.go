package gp

import (
	"math"
	"strings"
	"testing"

	"tesla/internal/mat"
	"tesla/internal/rng"
)

// TestFitterIncrementalMatchesFullRefit: appending observations one at a time
// (exercising the O(n²) factor-extension path) must produce the same GP a
// from-scratch fit over the same grid produces — factors, alpha and selected
// hyperparameters bit-identical.
func TestFitterIncrementalMatchesFullRefit(t *testing.T) {
	xs := []float64{20, 35, 23, 29, 26, 31.5, 21.7, 27.3, 33.1, 24.9}
	f1 := NewFitter(1)
	for i, x := range xs[:6] {
		if err := f1.Observe(x, Obs{0.05*(x-27)*(x-27) + 0.1*float64(i%3), 1e-4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f1.Fit(0); err != nil {
		t.Fatal(err)
	}
	var g1 *GP
	for i, x := range xs[6:] {
		if err := f1.Observe(x, Obs{0.05*(x-27)*(x-27) + 0.1*float64(i%3), 1e-4}); err != nil {
			t.Fatal(err)
		}
		var err error
		if g1, err = f1.Fit(0); err != nil {
			t.Fatal(err)
		}
	}
	if f1.ts[0].stats.Extends == 0 {
		t.Fatalf("extension fast path never fired: %+v", f1.ts[0].stats)
	}

	// Reference: a fresh fitter over the same data, forced onto the same
	// output-scale anchor so both use the same hyperparameter grid.
	f2 := NewFitter(1)
	for i := range f1.x {
		if err := f2.Observe(f1.x[i], Obs{f1.ts[0].y[i], f1.ts[0].noise[i]}); err != nil {
			t.Fatal(err)
		}
	}
	f2.ts[0].anchor = f1.ts[0].anchor
	f2.ts[0].osGrid = f1.ts[0].osGrid
	g2, err := f2.Fit(0)
	if err != nil {
		t.Fatal(err)
	}
	if f2.ts[0].stats.FullRefits != 1 || f2.ts[0].stats.Extends != 0 {
		t.Fatalf("reference fitter should have done one full refit: %+v", f2.ts[0].stats)
	}

	if g1.Lengthscale != g2.Lengthscale || g1.OutputScale != g2.OutputScale || g1.Mean != g2.Mean {
		t.Fatalf("hyperparameters diverge: incremental (%g,%g,%g) vs full (%g,%g,%g)",
			g1.Lengthscale, g1.OutputScale, g1.Mean, g2.Lengthscale, g2.OutputScale, g2.Mean)
	}
	for i := range g1.alpha {
		if g1.alpha[i] != g2.alpha[i] {
			t.Fatalf("alpha[%d]: incremental %g vs full %g", i, g1.alpha[i], g2.alpha[i])
		}
	}
	l1, l2 := g1.chol.L, g2.chol.L
	for i := range l1.Data {
		if d := math.Abs(l1.Data[i] - l2.Data[i]); d > 1e-12 {
			t.Fatalf("factor entry %d: incremental %g vs full %g (|Δ|=%g)", i, l1.Data[i], l2.Data[i], d)
		}
	}
}

// TestFitterSpanGrowthInvalidatesBases: when a new observation widens the data
// span, the lengthscale grid moves and every cached base matrix must be
// rebuilt from scratch. A regression here left stale packed rows in front of
// the rebuilt ones, so kernels were assembled from entries computed with the
// old grid — failing with "no hyperparameter setting produced a
// positive-definite kernel" (or, worse, fitting silently wrong).
func TestFitterSpanGrowthInvalidatesBases(t *testing.T) {
	f := NewFitter(1)
	for _, x := range []float64{20, 25, 23} {
		if err := f.Observe(x, Obs{0.1 * (x - 22) * (x - 22), 1e-4}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Fit(0); err != nil {
		t.Fatal(err)
	}
	// Extends the span (and again on the next round) so the grid rebuilds.
	for _, x := range []float64{35, 18} {
		if err := f.Observe(x, Obs{0.1 * (x - 22) * (x - 22), 1e-4}); err != nil {
			t.Fatal(err)
		}
		g1, err := f.Fit(0)
		if err != nil {
			t.Fatalf("fit after span growth: %v", err)
		}
		// Must match a fresh fit over the same data on the same grid.
		f2 := NewFitter(1)
		for i := range f.x {
			if err := f2.Observe(f.x[i], Obs{f.ts[0].y[i], f.ts[0].noise[i]}); err != nil {
				t.Fatal(err)
			}
		}
		f2.ts[0].anchor = f.ts[0].anchor
		f2.ts[0].osGrid = f.ts[0].osGrid
		g2, err := f2.Fit(0)
		if err != nil {
			t.Fatal(err)
		}
		if g1.Lengthscale != g2.Lengthscale || g1.OutputScale != g2.OutputScale || g1.Mean != g2.Mean {
			t.Fatalf("hyperparameters diverge after span growth: (%g,%g,%g) vs fresh (%g,%g,%g)",
				g1.Lengthscale, g1.OutputScale, g1.Mean, g2.Lengthscale, g2.OutputScale, g2.Mean)
		}
		for i := range g1.alpha {
			if g1.alpha[i] != g2.alpha[i] {
				t.Fatalf("alpha[%d]: %g vs fresh %g", i, g1.alpha[i], g2.alpha[i])
			}
		}
	}
}

// TestFitterExtensionPathOnStableVariance mirrors the optimizer's pattern
// (initial design, then one observation per iteration) and checks the fast
// path dominates when the target variance is stable.
func TestFitterExtensionPathOnStableVariance(t *testing.T) {
	f := NewFitter(1)
	for _, x := range []float64{20, 35, 24, 28, 31} {
		if err := f.Observe(x, Obs{3, 1e-6}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Fit(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := f.Observe(21+2*float64(i), Obs{3, 1e-6}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Fit(0); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats(0)
	if st.Fits != 7 {
		t.Fatalf("fits %d, want 7", st.Fits)
	}
	if st.Extends != 6 || st.FullRefits != 1 {
		t.Fatalf("constant targets should extend on every refit: %+v", st)
	}
}

// TestJointPosteriorMatchesPerRowReference: the blocked triangular solve must
// agree exactly (bitwise) with an independent per-row implementation of the
// same math on fixed inputs.
func TestJointPosteriorMatchesPerRowReference(t *testing.T) {
	xs, ys, noise := []float64{}, []float64{}, []float64{}
	for i := 0; i < 12; i++ {
		x := 20 + 15*float64(i)/11
		xs = append(xs, x)
		ys = append(ys, 0.05*(x-27)*(x-27)+math.Sin(float64(i)))
		noise = append(noise, 1e-4+1e-5*float64(i))
	}
	g, err := Fit(xs, ys, noise)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]float64, 61)
	for i := range pts {
		pts[i] = 20 + 15*float64(i)/60
	}
	mean, cov := g.JointPosterior(pts)

	// Per-row reference: fresh slices per point, no shared workspace.
	n := len(xs)
	m := len(pts)
	vs := make([][]float64, m)
	refMean := make([]float64, m)
	for a := 0; a < m; a++ {
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = g.OutputScale * Matern52(pts[a]-g.x[i], g.Lengthscale)
		}
		refMean[a] = g.Mean + mat.Dot(k, g.alpha)
		v := make([]float64, n)
		g.chol.ForwardSolveTo(v, k)
		vs[a] = v
	}
	for a := 0; a < m; a++ {
		if mean[a] != refMean[a] {
			t.Fatalf("mean[%d] = %g, reference %g", a, mean[a], refMean[a])
		}
		for b := a; b < m; b++ {
			val := g.OutputScale*Matern52(pts[a]-pts[b], g.Lengthscale) - mat.Dot(vs[a], vs[b])
			if floor := 1e-10 * g.OutputScale; a == b && val < floor {
				val = floor
			}
			if cov.At(a, b) != val {
				t.Fatalf("cov[%d,%d] = %g, reference %g", a, b, cov.At(a, b), val)
			}
		}
	}
}

// TestPosteriorMeanRecoversObservation: with near-zero observation noise the
// posterior mean at an observed input must reproduce the target.
func TestPosteriorMeanRecoversObservation(t *testing.T) {
	xs := []float64{20, 23, 26, 29, 32, 35}
	ys := make([]float64, len(xs))
	noise := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + math.Sin(x/3)
		noise[i] = 1e-10
	}
	g, err := Fit(xs, ys, noise)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		m, v := g.Posterior(x)
		if math.Abs(m-ys[i]) > 1e-4 {
			t.Fatalf("posterior mean at observed x=%g is %.9g, want %.9g", x, m, ys[i])
		}
		if v > 1e-4 {
			t.Fatalf("posterior variance %g at an observed near-noiseless point", v)
		}
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name        string
		x, y, noise []float64
	}{
		{"nan-x", []float64{1, math.NaN(), 3}, []float64{1, 2, 3}, []float64{1e-6, 1e-6, 1e-6}},
		{"inf-y", []float64{1, 2, 3}, []float64{1, math.Inf(1), 3}, []float64{1e-6, 1e-6, 1e-6}},
		{"nan-noise", []float64{1, 2, 3}, []float64{1, 2, 3}, []float64{1e-6, math.NaN(), 1e-6}},
	}
	for _, c := range cases {
		_, err := Fit(c.x, c.y, c.noise)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: error %q does not name the cause", c.name, err)
		}
	}
}

func TestObserveRejectsNonFinite(t *testing.T) {
	f := NewFitter(1)
	if err := f.Observe(math.Inf(-1), Obs{0, 1e-6}); err == nil {
		t.Fatalf("-Inf input accepted")
	}
	if f.NumObs() != 0 {
		t.Fatalf("rejected observation was stored")
	}
	// Every target's values are checked before anything is stored.
	f2 := NewFitter(2)
	for _, obs := range [][]Obs{
		{{1, 1e-6}, {math.NaN(), 1e-6}},
		{{1, 1e-6}, {2, math.Inf(1)}},
		{{1, 1e-6}}, // one value short
	} {
		if err := f2.Observe(3, obs...); err == nil {
			t.Fatalf("observation %v accepted by a two-target fitter", obs)
		}
		if f2.NumObs() != 0 || len(f2.ts[0].y) != 0 || len(f2.ts[1].y) != 0 {
			t.Fatalf("rejected observation %v was stored", obs)
		}
	}
}

// TestJointPosteriorBlocksMatchesJoint checks the block-form posterior
// against the full JointPosterior over [training inputs ∪ cands]: the means,
// the obs×obs block, the cand→obs cross block, and the candidate marginal
// variances must agree to tight tolerance (the two paths share the blocked
// forward-solve core but order some reductions differently).
func TestJointPosteriorBlocksMatchesJoint(t *testing.T) {
	r := rng.New(31)
	var x, y, noise []float64
	for i := 0; i < 9; i++ {
		x = append(x, 20+float64(i)*1.7)
		y = append(y, math.Sin(x[i]/3)+0.05*r.Norm())
		noise = append(noise, 1e-4)
	}
	g, err := Fit(x, y, noise)
	if err != nil {
		t.Fatal(err)
	}
	cands := []float64{19.5, 23.3, 28, 31.1, 36}
	n, nc := len(x), len(cands)

	pts := append(append([]float64{}, x...), cands...)
	mean, cov := g.JointPosterior(pts)
	b := g.JointPosteriorBlocks(cands)

	const tol = 1e-11
	for a := 0; a < n; a++ {
		if d := math.Abs(b.MeanObs[a] - mean[a]); d > tol {
			t.Fatalf("MeanObs[%d] off by %g", a, d)
		}
		for i := 0; i < n; i++ {
			if d := math.Abs(b.CovObs.Data[a*n+i] - cov.Data[a*(n+nc)+i]); d > tol {
				t.Fatalf("CovObs[%d,%d] off by %g", a, i, d)
			}
		}
	}
	for j := 0; j < nc; j++ {
		if d := math.Abs(b.MeanCand[j] - mean[n+j]); d > tol {
			t.Fatalf("MeanCand[%d] off by %g", j, d)
		}
		if d := math.Abs(b.VarCand[j] - cov.Data[(n+j)*(n+nc)+n+j]); d > tol {
			t.Fatalf("VarCand[%d] off by %g", j, d)
		}
		for a := 0; a < n; a++ {
			if d := math.Abs(b.Cross.Data[j*n+a] - cov.Data[(n+j)*(n+nc)+a]); d > tol {
				t.Fatalf("Cross[%d,%d] off by %g", j, a, d)
			}
		}
	}
}

// TestTwoTargetFitterMatchesFromScratch drives a two-target fitter the way
// one optimization run does (a 7-point design, then one observation per fit
// of both targets) and checks every fit bitwise against a fresh one-target
// fitter refactorizing from scratch on the same grid: the shared kernel
// store, the running log-determinants, the in-place factor extensions and
// the reused posterior scratch must change no bit.
func TestTwoTargetFitterMatchesFromScratch(t *testing.T) {
	cands := make([]float64, 31)
	for i := range cands {
		cands[i] = 20 + 15*float64(i)/30
	}
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed)
		f := NewFitter(2)
		if seed%2 == 0 {
			f.Reserve(15)
		}
		for n := 1; n <= 15; n++ {
			x := 20 + 15*r.Float64()
			obj := Obs{0.05*(x-27)*(x-27) + 0.1*r.Norm(), 1e-4 * (1 + r.Float64())}
			con := Obs{x - 30 + 0.3*r.Norm(), 1e-3 * (1 + r.Float64())}
			if err := f.Observe(x, obj, con); err != nil {
				t.Fatal(err)
			}
			if n < 7 {
				continue
			}
			cs := cands
			if seed%3 == 0 && n%2 == 1 { // a new candidate grid must not resume
				cs = cands[1:]
			}
			for ti := range 2 {
				g, err := f.Fit(ti)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstScratch(t, seed, n, f, ti, g, cs)
			}
		}
	}
}

// checkAgainstScratch compares g, target ti's fit of f, with a fresh
// one-target fitter on the same output-scale grid.
func checkAgainstScratch(t *testing.T, seed uint64, n int, f *Fitter, ti int, g *GP, cands []float64) {
	t.Helper()
	ft := &f.ts[ti]
	ref := NewFitter(1)
	for i := range f.x {
		if err := ref.Observe(f.x[i], Obs{ft.y[i], ft.noise[i]}); err != nil {
			t.Fatal(err)
		}
	}
	ref.ts[0].anchor, ref.ts[0].osGrid = ft.anchor, ft.osGrid
	want, err := ref.Fit(0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ts[0].stats.FullRefits != 1 {
		t.Fatalf("reference did not refactorize from scratch: %+v", ref.ts[0].stats)
	}
	for ci := range ft.cells {
		c, rc := &ft.cells[ci], &ref.ts[0].cells[ci]
		if c.alive != rc.alive || (c.alive && (c.logSum != rc.logSum || 2*c.logSum != c.chol.LogDet())) {
			t.Fatalf("seed %d n=%d target %d cell %d: alive %v log-sum %v, from scratch %v %v (LogDet/2 %v)",
				seed, n, ti, ci, c.alive, c.logSum, rc.alive, rc.logSum, c.chol.LogDet()/2)
		}
	}
	if g.Lengthscale != want.Lengthscale || g.OutputScale != want.OutputScale || g.Mean != want.Mean {
		t.Fatalf("seed %d n=%d: hyperparameters (%v,%v,%v), from scratch (%v,%v,%v)",
			seed, n, g.Lengthscale, g.OutputScale, g.Mean, want.Lengthscale, want.OutputScale, want.Mean)
	}
	bitEqual(t, "alpha", g.alpha, want.alpha)
	bitEqual(t, "factor", g.chol.L.Data, want.chol.L.Data)
	got, exp := g.JointPosteriorBlocks(cands), want.Snapshot().JointPosteriorBlocks(cands)
	bitEqual(t, "MeanObs", got.MeanObs, exp.MeanObs)
	bitEqual(t, "MeanCand", got.MeanCand, exp.MeanCand)
	bitEqual(t, "CovObs", got.CovObs.Data, exp.CovObs.Data)
	bitEqual(t, "Cross", got.Cross.Data, exp.Cross.Data)
	bitEqual(t, "VarCand", got.VarCand, exp.VarCand)
	for _, x := range f.x {
		m1, v1 := g.Posterior(x)
		m2, v2 := want.Posterior(x)
		if m1 != m2 || v1 != v2 {
			t.Fatalf("seed %d n=%d: posterior at %v (%v,%v), from scratch (%v,%v)", seed, n, x, m1, v1, m2, v2)
		}
	}
}

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], v)
		}
	}
}

// TestSnapshotOutlivesFitter: a snapshot is unchanged by later observations
// and fits of the fitter it came from, while the view it was taken from is
// reused.
func TestSnapshotOutlivesFitter(t *testing.T) {
	f := NewFitter(1)
	for _, x := range []float64{20, 35, 24, 28, 31} {
		if err := f.Observe(x, Obs{math.Sin(x), 1e-4}); err != nil {
			t.Fatal(err)
		}
	}
	view, err := f.Fit(0)
	if err != nil {
		t.Fatal(err)
	}
	snap := view.Snapshot()
	cands := []float64{21, 26.5, 33}
	before := *snap.JointPosteriorBlocks(cands)
	m0, v0 := snap.Posterior(27)
	for _, x := range []float64{22, 26, 34} {
		if err := f.Observe(x, Obs{math.Cos(x), 1e-3}); err != nil {
			t.Fatal(err)
		}
		again, err := f.Fit(0)
		if err != nil {
			t.Fatal(err)
		}
		if again != view {
			t.Fatalf("Fit returned a fresh GP instead of reusing its view")
		}
		again.JointPosteriorBlocks(cands)
	}
	after := snap.JointPosteriorBlocks(cands)
	bitEqual(t, "MeanCand", after.MeanCand, before.MeanCand)
	bitEqual(t, "Cross", after.Cross.Data, before.Cross.Data)
	bitEqual(t, "CovObs", after.CovObs.Data, before.CovObs.Data)
	if m, v := snap.Posterior(27); m != m0 || v != v0 {
		t.Fatalf("snapshot posterior moved: (%v,%v) → (%v,%v)", m0, v0, m, v)
	}
}
