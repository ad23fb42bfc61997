package bo

import (
	"math"
	"sync"
	"testing"

	"tesla/internal/rng"
)

// quadraticProblem builds a deterministic evaluator with objective
// (x−opt)² and constraint x − limit ≤ 0.
func quadraticProblem(opt, limit float64, noise float64, seed uint64) Evaluator {
	r := rng.New(seed)
	return func(x float64) Evaluation {
		obj := (x - opt) * (x - opt)
		if noise > 0 {
			obj += noise * r.Norm()
		}
		return Evaluation{
			X: x, Obj: obj, Con: x - limit,
			ObjNoiseVar: noise*noise + 1e-8, ConNoiseVar: 1e-6,
		}
	}
}

func TestFindsUnconstrainedOptimum(t *testing.T) {
	cfg := DefaultConfig(20, 35)
	cfg.Seed = 1
	res, err := Optimize(cfg, quadraticProblem(27, 100, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("problem is everywhere feasible")
	}
	if math.Abs(res.X-27) > 0.75 {
		t.Fatalf("optimum %g, want ~27", res.X)
	}
}

func TestRespectsConstraintBoundary(t *testing.T) {
	// Optimum at 30 but the constraint caps x at 25: the recommendation
	// must stay at or below the boundary.
	cfg := DefaultConfig(20, 35)
	cfg.Seed = 2
	res, err := Optimize(cfg, quadraticProblem(30, 25, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("feasible region exists")
	}
	if res.X > 25.01 {
		t.Fatalf("recommendation %g violates the constraint boundary 25", res.X)
	}
	if res.X < 22 {
		t.Fatalf("recommendation %g overly conservative", res.X)
	}
}

func TestInfeasibleEverywhereFallsBackToMin(t *testing.T) {
	cfg := DefaultConfig(20, 35)
	cfg.Seed = 3
	eval := func(x float64) Evaluation {
		return Evaluation{X: x, Obj: x, Con: 5, ObjNoiseVar: 1e-6, ConNoiseVar: 1e-6}
	}
	res, err := Optimize(cfg, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("nothing is feasible")
	}
	if res.X != 20 {
		t.Fatalf("backstop must return S_min, got %g", res.X)
	}
}

func TestNoisyObjectiveStillLocatesOptimum(t *testing.T) {
	cfg := DefaultConfig(20, 35)
	cfg.Iterations = 12
	cfg.Seed = 4
	res, err := Optimize(cfg, quadraticProblem(28, 100, 2.0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X-28) > 3 {
		t.Fatalf("noisy optimum %g too far from 28", res.X)
	}
}

func TestEvaluationBudgetRespected(t *testing.T) {
	cfg := DefaultConfig(20, 35)
	cfg.InitPoints = 5
	cfg.Iterations = 4
	calls := 0
	eval := func(x float64) Evaluation {
		calls++
		return Evaluation{X: x, Obj: x * x, Con: -1, ObjNoiseVar: 1e-6, ConNoiseVar: 1e-6}
	}
	res, err := Optimize(cfg, eval)
	if err != nil {
		t.Fatal(err)
	}
	if calls > cfg.InitPoints+cfg.Iterations {
		t.Fatalf("%d evaluations exceed budget %d", calls, cfg.InitPoints+cfg.Iterations)
	}
	if len(res.Evals) != calls {
		t.Fatalf("Evals misses evaluations: %d vs %d", len(res.Evals), calls)
	}
	if res.ObjGP == nil || res.ConGP == nil {
		t.Fatalf("surrogates not exposed")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Min, c.Max = 30, 20 },
		func(c *Config) { c.InitPoints = 1 },
		func(c *Config) { c.Candidates = 1 },
		func(c *Config) { c.QMCSamples = 0 },
		func(c *Config) { c.FeasProb = 0 },
		func(c *Config) { c.FeasProb = 1 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig(20, 35)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("case %d should be invalid", i)
		}
		if _, err := Optimize(cfg, quadraticProblem(27, 100, 0, 1)); err == nil {
			t.Fatalf("Optimize accepted invalid config %d", i)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() float64 {
		cfg := DefaultConfig(20, 35)
		cfg.Seed = 9
		res, err := Optimize(cfg, quadraticProblem(26, 100, 0, 9))
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}
	if run() != run() {
		t.Fatalf("same seed gave different recommendations")
	}
}

func TestAcquisitionPrefersPromisingRegion(t *testing.T) {
	// After optimization most NEI-chosen points should cluster near the
	// optimum rather than spreading uniformly.
	cfg := DefaultConfig(20, 35)
	cfg.Iterations = 10
	cfg.Seed = 11
	res, err := Optimize(cfg, quadraticProblem(27, 100, 0, 11))
	if err != nil {
		t.Fatal(err)
	}
	near := 0
	for _, e := range res.Evals[cfg.InitPoints:] {
		if math.Abs(e.X-27) < 3 {
			near++
		}
	}
	// EI alternates between exploiting the basin and exploring uncertainty
	// elsewhere; a noiseless quadratic still deserves a couple of picks in
	// the basin plus an accurate recommendation.
	if near < 2 {
		t.Fatalf("only %d of %d NEI picks near the optimum", near, len(res.Evals)-cfg.InitPoints)
	}
	if math.Abs(res.X-27) > 1 {
		t.Fatalf("recommendation %g should sit near the optimum", res.X)
	}
}

// optimizeX runs a fixed noisy problem at the given worker count and returns
// the recommendation plus every evaluation (probe order is part of the
// contract: a single acquisition bit-flip would change the probe sequence).
func optimizeX(t *testing.T, workers int) (float64, []Evaluation) {
	t.Helper()
	cfg := DefaultConfig(20, 35)
	cfg.Seed = 21
	cfg.Workers = workers
	res, err := Optimize(cfg, quadraticProblem(27, 30, 0.5, 21))
	if err != nil {
		t.Fatal(err)
	}
	return res.X, res.Evals
}

// TestParallelMatchesSerial is the determinism guarantee of the parallel
// acquisition: for any worker count the optimizer output is bit-identical to
// the single-worker (serial) reference.
func TestParallelMatchesSerial(t *testing.T) {
	refX, refEvals := optimizeX(t, 1)
	for _, workers := range []int{2, 3, 4, 8, 16, 0} {
		x, evals := optimizeX(t, workers)
		if x != refX {
			t.Fatalf("workers=%d: recommendation %v != serial %v", workers, x, refX)
		}
		if len(evals) != len(refEvals) {
			t.Fatalf("workers=%d: %d evals != serial %d", workers, len(evals), len(refEvals))
		}
		for i := range evals {
			if evals[i] != refEvals[i] {
				t.Fatalf("workers=%d: eval %d = %+v != serial %+v", workers, i, evals[i], refEvals[i])
			}
		}
	}
}

// TestAcquireNEIParallelBitIdentical exercises the acquisition function
// directly: identical RNG state in, bit-identical scores out per worker count.
func TestAcquireNEIParallelBitIdentical(t *testing.T) {
	eval := quadraticProblem(26, 29, 0.3, 5)
	var evals []Evaluation
	for _, x := range []float64{20, 22.5, 25, 27.5, 30, 32.5, 35} {
		evals = append(evals, eval(x))
	}
	objGP, conGP, err := fitSurrogates(evals)
	if err != nil {
		t.Fatal(err)
	}
	cands := linspace(20, 35, 61)
	score := func(workers int) []float64 {
		draws := newAcqDraws(len(evals), len(cands), 64, rng.New(77))
		return acquireNEI(objGP, conGP, cands, draws, 64, workers)
	}
	ref := score(1)
	for _, workers := range []int{2, 5, 8, 0} {
		got := score(workers)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("workers=%d: acq[%d] = %v != serial %v", workers, j, got[j], ref[j])
			}
		}
	}
	nonzero := 0
	for _, v := range ref {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatalf("degenerate acquisition: every candidate scored zero")
	}
}

// TestOptimizeIdenticalAcrossCPU pins the GOMAXPROCS-independence the
// concurrency model promises: with Workers=0 (auto) the result must match
// the serial reference no matter what -cpu this test runs under.
func TestOptimizeIdenticalAcrossCPU(t *testing.T) {
	refX, _ := optimizeX(t, 1)
	autoX, _ := optimizeX(t, 0)
	if autoX != refX {
		t.Fatalf("auto workers gave %v, serial reference %v", autoX, refX)
	}
}

// TestOptimizeConcurrentCallers runs independent optimizations concurrently
// (the -race companion of the worker-pool conversion).
func TestOptimizeConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := DefaultConfig(20, 35)
			cfg.Seed = uint64(g + 1)
			if _, err := Optimize(cfg, quadraticProblem(27, 100, 0, uint64(g+1))); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
