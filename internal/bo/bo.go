// Package bo implements TESLA's modeling-error-aware Bayesian optimizer
// (paper §3.3): separate fixed-noise Gaussian processes for the objective
// (cooling energy + interruption penalty) and the thermal-safety constraint,
// a constrained Noisy Expected Improvement acquisition integrated with
// quasi-Monte-Carlo (Sobol) function draws, and the paper's backstop of
// returning S_min when no candidate set-point is predicted feasible.
//
// The optimizer minimizes the objective subject to constraint ≤ 0 over a
// scalar domain [Min, Max] (the ACU's allowable set-point range).
package bo

import (
	"fmt"
	"math"

	"tesla/internal/gp"
	"tesla/internal/mat"
	"tesla/internal/parallel"
	"tesla/internal/rng"
)

// Evaluation is one noisy probe of the black-box problem.
type Evaluation struct {
	X           float64 // set-point candidate
	Obj         float64 // noisy objective observation Ô
	Con         float64 // noisy constraint observation Ĉ
	ObjNoiseVar float64 // bootstrap variance of the objective error
	ConNoiseVar float64 // bootstrap variance of the constraint error
}

// Evaluator produces a noisy observation of the objective and constraint at
// x along with their noise variances (from the prediction-error monitor).
type Evaluator func(x float64) Evaluation

// Config controls the optimization budget.
type Config struct {
	Min, Max   float64 // domain (S_min, S_max)
	InitPoints int     // Sobol initial design size
	Iterations int     // NEI-driven evaluations after the initial design
	Candidates int     // acquisition grid resolution
	QMCSamples int     // Sobol posterior draws per acquisition evaluation
	// FeasProb is the posterior feasibility probability a candidate must
	// reach to be recommended — the "modeling-error-aware" margin.
	FeasProb float64
	Seed     uint64
	// Workers bounds the goroutines scoring the acquisition (<= 0 selects
	// GOMAXPROCS). The result is bit-identical for every worker count: the
	// QMC draws are generated serially from Seed and each posterior draw's
	// improvement contribution is reduced in draw order.
	Workers int
}

// DefaultConfig returns a budget suited to a per-minute control step.
func DefaultConfig(min, max float64) Config {
	return Config{
		Min: min, Max: max,
		InitPoints: 7,
		Iterations: 8,
		Candidates: 61,
		QMCSamples: 64,
		FeasProb:   0.975,
		Seed:       1,
	}
}

// Validate reports invalid configurations.
func (c Config) Validate() error {
	switch {
	case !(c.Max > c.Min):
		return fmt.Errorf("bo: empty domain [%g,%g]", c.Min, c.Max)
	case c.InitPoints < 2:
		return fmt.Errorf("bo: need at least 2 initial points, got %d", c.InitPoints)
	case c.Candidates < 2:
		return fmt.Errorf("bo: need at least 2 candidates, got %d", c.Candidates)
	case c.QMCSamples < 1:
		return fmt.Errorf("bo: need at least 1 QMC sample, got %d", c.QMCSamples)
	case c.FeasProb <= 0 || c.FeasProb >= 1:
		return fmt.Errorf("bo: FeasProb must lie in (0,1), got %g", c.FeasProb)
	}
	return nil
}

// Result reports the recommended set-point and the surrogate state.
type Result struct {
	X        float64 // recommended set-point (Min when infeasible)
	Feasible bool    // false means the S_min backstop fired
	Evals    []Evaluation
	ObjGP    *gp.GP // fitted objective surrogate (for introspection, Fig. 8b)
	ConGP    *gp.GP // fitted constraint surrogate
}

// Optimize runs the constrained NEI loop.
func Optimize(cfg Config, eval Evaluator) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)

	// Incremental surrogates: each new evaluation is appended to one fitter
	// for both targets, which retains per-grid-cell Cholesky factors so the
	// per-iteration refit extends them in O(n²) instead of refactorizing from
	// scratch, and one kernel store, so every Matérn value of the run is
	// computed once. The GPs it returns are views reused across iterations;
	// only the final pair is snapshotted into the Result.
	sur := newSurrogates(cfg.InitPoints + cfg.Iterations)

	// Initial design: scrambled Sobol over the domain, plus the endpoints so
	// the surrogate always brackets the feasible region.
	var evals []Evaluation
	add := func(e Evaluation) error {
		evals = append(evals, e)
		return sur.observe(e)
	}
	if err := add(eval(cfg.Min)); err != nil {
		return nil, err
	}
	if err := add(eval(cfg.Max)); err != nil {
		return nil, err
	}
	sob, err := rng.NewSobol(1)
	if err != nil {
		return nil, err
	}
	sob.Scramble(r)
	for i := 0; i < cfg.InitPoints-2; i++ {
		u := sob.Next(nil)[0]
		if err := add(eval(cfg.Min + u*(cfg.Max-cfg.Min))); err != nil {
			return nil, err
		}
	}

	cands := linspace(cfg.Min, cfg.Max, cfg.Candidates)

	// QMC base draws are generated once, sized for the largest joint the loop
	// will ever sample, and reused by every acquisition evaluation (BoTorch's
	// fixed-base-samples strategy): regenerating them per iteration dominated
	// the acquisition cost, and reuse also smooths the acquisition surface
	// across iterations instead of adding fresh Monte-Carlo noise each time.
	draws := newAcqDraws(cfg.InitPoints+cfg.Iterations, cfg.Candidates, cfg.QMCSamples, r)
	var scratch acqScratch

	var objGP, conGP *gp.GP
	for it := 0; it < cfg.Iterations; it++ {
		objGP, conGP, err = sur.fit()
		if err != nil {
			return nil, err
		}
		acq := scratch.acquireNEI(objGP, conGP, cands, draws, cfg.QMCSamples, cfg.Workers)
		next, ok := pickNext(acq, cands, evals, (cfg.Max-cfg.Min)/float64(4*cfg.Candidates))
		if !ok {
			break // acquisition exhausted: every candidate already probed
		}
		if err := add(eval(next)); err != nil {
			return nil, err
		}
	}
	objGP, conGP, err = sur.fit()
	if err != nil {
		return nil, err
	}

	res := &Result{Evals: evals, ObjGP: objGP.Snapshot(), ConGP: conGP.Snapshot()}
	res.X, res.Feasible = recommend(conGP, evals, cfg.FeasProb)
	if !res.Feasible {
		res.X = cfg.Min // paper backstop: pick S_min and recalibrate later
	}
	return res, nil
}

// surrogates fits the objective and constraint GPs as the two targets of
// one incremental fitter: both are observed at every evaluation's X.
type surrogates struct {
	f *gp.Fitter
}

// Targets of the surrogate fitter.
const (
	objTarget = iota
	conTarget
)

// newSurrogates returns surrogates reserved for maxObs observations.
func newSurrogates(maxObs int) *surrogates {
	s := &surrogates{f: gp.NewFitter(2)}
	s.f.Reserve(maxObs)
	return s
}

// observe appends one evaluation to both targets. Noise variances pass
// through floorVar, so only a non-finite X/Obj/Con can be rejected here.
func (s *surrogates) observe(e Evaluation) error {
	err := s.f.Observe(e.X,
		gp.Obs{Y: e.Obj, Noise: floorVar(e.ObjNoiseVar)},
		gp.Obs{Y: e.Con, Noise: floorVar(e.ConNoiseVar)})
	if err != nil {
		return fmt.Errorf("bo: surrogates (target %d objective, %d constraint): %w", objTarget, conTarget, err)
	}
	return nil
}

func (s *surrogates) fit() (objGP, conGP *gp.GP, err error) {
	if objGP, err = s.f.Fit(objTarget); err != nil {
		return nil, nil, fmt.Errorf("bo: objective surrogate: %w", err)
	}
	if conGP, err = s.f.Fit(conTarget); err != nil {
		return nil, nil, fmt.Errorf("bo: constraint surrogate: %w", err)
	}
	return objGP, conGP, nil
}

// fitSurrogates is the one-shot form (state restore, tests and benchmarks);
// it returns snapshots.
func fitSurrogates(evals []Evaluation) (*gp.GP, *gp.GP, error) {
	s := newSurrogates(len(evals))
	for _, e := range evals {
		if err := s.observe(e); err != nil {
			return nil, nil, err
		}
	}
	objGP, conGP, err := s.fit()
	if err != nil {
		return nil, nil, err
	}
	return objGP.Snapshot(), conGP.Snapshot(), nil
}

// acqChunk is the number of posterior draws one pool task scores. It is a
// fixed constant — never derived from the worker count — so the work
// partition (and with it every floating-point grouping) is identical no
// matter how many workers run.
const acqChunk = 8

// acquireNEI estimates the constrained noisy-EI acquisition on the candidate
// grid: QMC draws of the joint posterior at [observed ∪ candidates]
// determine, per draw, the best feasible "true" objective among the observed
// points (the noisy incumbent) and the improvement each feasible candidate
// would deliver over it.
//
// Sampling is factored through the observed block: each draw realizes the
// observed points from the dense n×n posterior factor, then each candidate
// conditionally as f_j = μ_j + w_jᵀ·z_obs + s_j·z_j. Per-candidate
// improvement depends only on the candidate's joint law with the observed
// points, which this factorization reproduces exactly — only the
// candidate×candidate correlations (irrelevant to the NEI estimand) differ
// from a full joint draw, so the (n+nc)³ factorization and (n+nc)²
// per-draw multiply both collapse to O(n²+nc·n) work.
//
// The draw loop fans out over a bounded worker pool. Determinism: the QMC
// base draws were generated serially from the optimizer seed before any
// fan-out, each draw writes its improvement contributions into its own row of
// a draws×candidates matrix, and the rows are reduced serially in draw order
// — so the result is bit-identical to the single-threaded loop for any
// worker count.
func acquireNEI(objGP, conGP *gp.GP, cands []float64, draws *acqDraws, nSamples, workers int) []float64 {
	return new(acqScratch).acquireNEI(objGP, conGP, cands, draws, nSamples, workers)
}

// acqScratch is the acquisition's workspace, reused across the iterations of
// one Optimize run. The acquisition it returns is overwritten by the next
// call.
type acqScratch struct {
	ob, cb  condFactors
	contrib []float64 // draws × candidates improvement contributions
	acq     []float64
	f       []float64 // per chunk: sampled objective, then constraint, at the observations
}

func (a *acqScratch) acquireNEI(objGP, conGP *gp.GP, cands []float64, draws *acqDraws, nSamples, workers int) []float64 {
	ob, cb := &a.ob, &a.cb
	ob.update(objGP, cands)
	cb.update(conGP, cands)
	nObs := objGP.NumObs()
	nc := len(cands)
	a.contrib = resize(a.contrib, nSamples*nc)
	contrib := a.contrib
	clear(contrib)
	nChunks := (nSamples + acqChunk - 1) / acqChunk
	a.f = resize(a.f, 2*nObs*nChunks)
	parallel.Chunks(workers, nSamples, acqChunk, func(c, lo, hi int) {
		fObj := a.f[2*nObs*c : (2*c+1)*nObs]
		fCon := a.f[(2*c+1)*nObs : 2*nObs*(c+1)]
		for k := lo; k < hi; k++ {
			zObjObs, zObjCand, zConObs, zConCand := draws.split(k, nObs)
			sampleGaussian(ob.meanObs, ob.l, zObjObs, fObj)
			sampleGaussian(cb.meanObs, cb.l, zConObs, fCon)

			// Noisy incumbent: best sampled objective among observed points
			// that the same draw deems feasible.
			incumbent := math.Inf(1)
			for i := 0; i < nObs; i++ {
				if fCon[i] <= 0 && fObj[i] < incumbent {
					incumbent = fObj[i]
				}
			}
			if math.IsInf(incumbent, 1) {
				// No feasible observation in this draw: reward candidates for
				// being feasible at all, scored by how good they look.
				incumbent = maxOf(fObj)
			}
			row := contrib[k*nc : (k+1)*nc]
			for j := range cands {
				fc := cb.meanCand[j] + mat.Dot(cb.w.Row(j), zConObs) + cb.s[j]*zConCand[j]
				if !(fc <= 0) { // NaN draws count as infeasible
					continue
				}
				f := ob.meanCand[j] + mat.Dot(ob.w.Row(j), zObjObs) + ob.s[j]*zObjCand[j]
				if f < incumbent {
					row[j] = incumbent - f
				}
			}
		}
	})

	a.acq = resize(a.acq, nc)
	acq := a.acq
	clear(acq)
	for k := 0; k < nSamples; k++ {
		row := contrib[k*nc : (k+1)*nc]
		for j, v := range row {
			if v != 0 {
				acq[j] += v
			}
		}
	}
	for j := range acq {
		acq[j] /= float64(nSamples)
	}
	return acq
}

// condFactors holds one surrogate's sampling factors for acquireNEI: the
// jittered Cholesky factor of the observed-block posterior covariance, and
// per candidate the conditional-sampling weights w_j = L⁻¹·cov(cand_j, obs)
// and residual standard deviation s_j = √(var_j − ‖w_j‖²). The posterior
// blocks of a GP view are its target's scratch, so the factors are valid
// until the next posterior of that target.
type condFactors struct {
	meanObs  []float64
	meanCand []float64
	l        *mat.Dense // Cholesky factor of the n×n observed posterior cov
	w        *mat.Dense // nc×n conditional weights
	s        []float64  // nc conditional standard deviations
}

// update recomputes the factors for g over cands, reusing their storage.
func (c *condFactors) update(g *gp.GP, cands []float64) {
	b := g.JointPosteriorBlocks(cands)
	c.l = cholWithJitter(c.l, b.CovObs)
	ch := mat.Cholesky{L: c.l}
	c.s = resize(c.s, len(cands))
	for j := range cands {
		row := b.Cross.Row(j)
		ch.ForwardSolveTo(row, row)
		v := b.VarCand[j] - mat.Dot(row, row)
		if v < 0 {
			// The jitter added to CovObs (and plain rounding) can push the
			// conditional variance a hair negative; the candidate is then
			// fully determined by the observed block.
			v = 0
		}
		c.s[j] = math.Sqrt(v)
	}
	c.meanObs, c.meanCand, c.w = b.MeanObs, b.MeanCand, b.Cross
}

// acqDraws holds the QMC base draws shared by every acquisition evaluation of
// one Optimize run. A row is laid out as
// [obj obs (maxObs) | obj cand (nc) | con obs (maxObs) | con cand (nc)];
// while the observed set is still growing, split hands out the leading nObs
// coordinates of each observed block, so a given observation keeps the same
// base coordinate across iterations.
type acqDraws struct {
	q      *qmcNormals
	maxObs int
	nc     int
}

func newAcqDraws(maxObs, nc, samples int, r *rng.Rand) *acqDraws {
	return &acqDraws{q: newQMCNormals(2*(maxObs+nc), samples, r), maxObs: maxObs, nc: nc}
}

func (a *acqDraws) split(k, nObs int) (zObjObs, zObjCand, zConObs, zConCand []float64) {
	if nObs > a.maxObs {
		panic(fmt.Sprintf("bo: %d observations exceed the %d the draws were sized for", nObs, a.maxObs))
	}
	row := a.q.row(k)
	conObs := a.maxObs + a.nc
	conCand := conObs + a.maxObs
	return row[:nObs], row[a.maxObs:conObs], row[conObs : conObs+nObs], row[conCand:]
}

// Acquire scores the NEI acquisition over cands from freshly generated QMC
// draws — the standalone form of the acquisition used inside Optimize,
// exported for benchmarks and tools (teslabench -bo).
func Acquire(objGP, conGP *gp.GP, cands []float64, nSamples, workers int, seed uint64) []float64 {
	r := rng.New(seed)
	draws := newAcqDraws(objGP.NumObs(), len(cands), nSamples, r)
	return acquireNEI(objGP, conGP, cands, draws, nSamples, workers)
}

// pickNext selects the acquisition maximizer that is not within tol of an
// existing evaluation.
func pickNext(acq, cands []float64, evals []Evaluation, tol float64) (float64, bool) {
	type scored struct {
		x, a float64
	}
	best := scored{a: math.Inf(-1)}
	found := false
	fallback, haveFallback := 0.0, false
	for j, x := range cands {
		dup := false
		for _, e := range evals {
			if math.Abs(e.X-x) < tol {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if !haveFallback {
			fallback, haveFallback = x, true
		}
		if math.IsNaN(acq[j]) {
			// A poisoned acquisition score must not win the argmax — and a
			// fully poisoned sweep must not end the optimization (see below).
			continue
		}
		if acq[j] > best.a {
			best = scored{x, acq[j]}
			found = true
		}
	}
	if !found && haveFallback {
		// Every unprobed candidate scored NaN: probing any of them still
		// teaches the surrogate more than aborting the loop would. Take the
		// first (deterministic) rather than silently reporting exhaustion.
		return fallback, true
	}
	return best.x, found
}

// recommend picks the best observed point whose posterior probability of
// satisfying the constraint exceeds feasProb. Recommending among evaluated
// points (rather than the posterior-mean minimizer over the whole grid)
// avoids GP interpolation error around the objective's narrow minimum, while
// the constraint GP still supplies the modeling-error-aware safety margin.
func recommend(conGP *gp.GP, evals []Evaluation, feasProb float64) (float64, bool) {
	bestX, bestObj := 0.0, math.Inf(1)
	found := false
	for _, e := range evals {
		cm, cv := conGP.Posterior(e.X)
		if !isFinite(cm) || !isFinite(cv) {
			// A degenerate posterior (NaN/Inf mean or variance) says nothing
			// about feasibility; without this guard the NaN flows through
			// NormCDF and the `pFeas < feasProb` comparison below is false for
			// NaN, so the candidate would be accepted as feasible with an
			// undefined probability. Treat it as infeasible instead.
			continue
		}
		sd := math.Sqrt(cv)
		var pFeas float64
		if sd < 1e-12 {
			if cm <= 0 {
				pFeas = 1
			}
		} else {
			pFeas = rng.NormCDF(-cm / sd)
		}
		if pFeas < feasProb {
			continue
		}
		if e.Obj < bestObj {
			bestObj = e.Obj
			bestX = e.X
			found = true
		}
	}
	return bestX, found
}

// qmcNormals supplies rows of standard-normal variates: the first (at most)
// rng.MaxSobolDim coordinates come from a scrambled Sobol sequence through
// the inverse normal CDF, the remainder from the PRNG — a pragmatic hybrid
// for joint draws wider than the Sobol table.
type qmcNormals struct {
	data []float64
	dim  int
}

func newQMCNormals(dim, n int, r *rng.Rand) *qmcNormals {
	q := &qmcNormals{data: make([]float64, dim*n), dim: dim}
	sobDim := dim
	if sobDim > rng.MaxSobolDim {
		sobDim = rng.MaxSobolDim
	}
	sob, err := rng.NewSobol(sobDim)
	if err != nil {
		panic(err) // unreachable: sobDim validated above
	}
	sob.Scramble(r)
	sob.Skip(1) // skip the origin
	buf := make([]float64, sobDim)
	for k := 0; k < n; k++ {
		row := q.data[k*dim : (k+1)*dim]
		sob.Next(buf)
		for d := 0; d < sobDim; d++ {
			u := buf[d]
			if u <= 0 {
				u = qmcFallbackU(k, d, sobDim, n)
			}
			row[d] = rng.InvNormCDF(u)
		}
		for d := sobDim; d < dim; d++ {
			row[d] = r.Norm()
		}
	}
	return q
}

// qmcFallbackU substitutes a strictly positive uniform for a Sobol coordinate
// that landed on 0 (InvNormCDF(0) = −Inf). The substitute is a deterministic
// stratified offset distinct per (draw, dim): using one shared constant here
// would collapse every patched coordinate into a point mass, correlating
// draws that the acquisition integral assumes are spread over the domain.
func qmcFallbackU(k, d, sobDim, n int) float64 {
	return (float64(k) + (float64(d)+0.5)/float64(sobDim)) / float64(n)
}

func (q *qmcNormals) row(k int) []float64 { return q.data[k*q.dim : (k+1)*q.dim] }

// sampleGaussian computes out = mean + L·z.
func sampleGaussian(mean []float64, l *mat.Dense, z, out []float64) {
	n := len(mean)
	for i := 0; i < n; i++ {
		s := mean[i]
		row := l.Row(i)
		for j := 0; j <= i && j < n; j++ {
			s += row[j] * z[j]
		}
		out[i] = s
	}
}

// cholWithJitter factors a posterior covariance into work (reshaped and
// reused; nil allocates), escalating diagonal jitter until it succeeds
// (posterior covariances are often numerically singular when candidates
// coincide with observations). Each retry refills work from cov with a
// memcpy instead of allocating a fresh matrix.
func cholWithJitter(work, cov *mat.Dense) *mat.Dense {
	jitter := 0.0
	base := 1e-10 * (1 + meanDiag(cov))
	if work == nil {
		work = &mat.Dense{}
	}
	work.Rows, work.Cols, work.Data = cov.Rows, cov.Cols, resize(work.Data, len(cov.Data))
	for attempt := 0; attempt < 12; attempt++ {
		copy(work.Data, cov.Data)
		if attempt > 0 {
			for i := 0; i < work.Rows; i++ {
				work.Data[i*work.Cols+i] += jitter
			}
		}
		if _, err := mat.CholeskyInPlace(work); err == nil {
			return work
		}
		if jitter == 0 {
			jitter = base
		} else {
			jitter *= 10
		}
	}
	// Degenerate fallback: diagonal standard deviations only.
	clear(work.Data)
	for i := 0; i < cov.Rows; i++ {
		v := cov.Data[i*cov.Cols+i]
		if v < 0 {
			v = 0
		}
		work.Data[i*cov.Cols+i] = math.Sqrt(v)
	}
	return work
}

func meanDiag(a *mat.Dense) float64 {
	if a.Rows == 0 {
		return 0
	}
	var s float64
	for i := 0; i < a.Rows; i++ {
		s += math.Abs(a.Data[i*a.Cols+i])
	}
	return s / float64(a.Rows)
}

// floorVar clamps a noise variance to the numerical floor. Non-finite values
// are clamped too: `NaN < 1e-8` is false, so a plain comparison would let a
// NaN noise variance through to the kernel diagonal, where it fails every
// hyperparameter grid cell and errors the whole control step.
func floorVar(v float64) float64 {
	if !isFinite(v) || v < 1e-8 {
		return 1e-8
	}
	return v
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}
