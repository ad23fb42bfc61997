package bo

import (
	"math"
	"reflect"
	"testing"

	"tesla/internal/gp"
)

// TestResultStateRoundTrip: a Result rebuilt from its state must carry the
// same recommendation and evaluations, and the refitted surrogates must agree
// with the originals at every probe point. Agreement is NOT bitwise: the
// refit anchors its hyperparameter grid to the final data (gp.Fit one-shot
// semantics) while the original fitter's anchor carries ×2/÷2 hysteresis
// from the incremental history, so posterior means agree tightly and
// variances only within the hysteresis band. Control decisions never read
// these surrogates (each Decide re-optimizes), so that is the full contract.
func TestResultStateRoundTrip(t *testing.T) {
	cfg := DefaultConfig(20, 35)
	cfg.Seed = 11
	res, err := Optimize(cfg, quadraticProblem(27, 100, 0, 11))
	if err != nil {
		t.Fatal(err)
	}
	st := res.State()
	got, err := ResultFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got.X != res.X || got.Feasible != res.Feasible {
		t.Fatalf("recommendation diverged: %+v vs %+v", got, res)
	}
	if !reflect.DeepEqual(got.Evals, res.Evals) {
		t.Fatal("evaluations diverged across the round trip")
	}
	if got.ObjGP == nil || got.ConGP == nil {
		t.Fatal("surrogates not refitted")
	}
	meanClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-3*(1+math.Max(math.Abs(a), math.Abs(b)))
	}
	varClose := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		return lo >= 0 && hi <= 4*lo+1e-12
	}
	for _, x := range linspace(cfg.Min, cfg.Max, 17) {
		m1, v1 := res.ObjGP.Posterior(x)
		m2, v2 := got.ObjGP.Posterior(x)
		if !meanClose(m1, m2) || !varClose(v1, v2) {
			t.Fatalf("objective posterior diverged at %g: (%g,%g) vs (%g,%g)", x, m1, v1, m2, v2)
		}
		m1, v1 = res.ConGP.Posterior(x)
		m2, v2 = got.ConGP.Posterior(x)
		if !meanClose(m1, m2) || !varClose(v1, v2) {
			t.Fatalf("constraint posterior diverged at %g: (%g,%g) vs (%g,%g)", x, m1, v1, m2, v2)
		}
	}
}

func TestResultFromEmptyState(t *testing.T) {
	got, err := ResultFromState(ResultState{X: 20, Feasible: false})
	if err != nil {
		t.Fatal(err)
	}
	if got.ObjGP != nil || got.ConGP != nil {
		t.Fatal("empty state should not fit surrogates")
	}
	if got.X != 20 || got.Feasible {
		t.Fatalf("recommendation diverged: %+v", got)
	}
}

// TestOptimizeFinalGPsMatchUnsharedReplay: across seeds, the final
// surrogates of Optimize — fitted as two targets of one fitter over one
// kernel store, with reserved storage, reused views and reused posterior
// scratch — are bit-identical to replaying the same evaluations through two
// independent one-target fitters on Optimize's fit schedule. ResultFromState cannot be
// the oracle here: its one-shot refit re-anchors the output-scale grid (see
// TestResultStateRoundTrip); the gp package checks the incremental fits
// against from-scratch factorizations on a shared grid.
func TestOptimizeFinalGPsMatchUnsharedReplay(t *testing.T) {
	cfg := DefaultConfig(20, 35)
	cands := linspace(cfg.Min, cfg.Max, cfg.Candidates)
	for seed := uint64(1); seed <= 24; seed++ {
		cfg.Seed = seed
		res, err := Optimize(cfg, quadraticProblem(22+0.5*float64(seed%20), 26+0.3*float64(seed%11), 0.2, seed))
		if err != nil {
			t.Fatal(err)
		}
		obj, con := gp.NewFitter(1), gp.NewFitter(1)
		var objGP, conGP *gp.GP
		for i, e := range res.Evals {
			if err := obj.Observe(e.X, gp.Obs{Y: e.Obj, Noise: floorVar(e.ObjNoiseVar)}); err != nil {
				t.Fatal(err)
			}
			if err := con.Observe(e.X, gp.Obs{Y: e.Con, Noise: floorVar(e.ConNoiseVar)}); err != nil {
				t.Fatal(err)
			}
			if i+1 < cfg.InitPoints {
				continue
			}
			if objGP, err = obj.Fit(0); err != nil {
				t.Fatal(err)
			}
			if conGP, err = con.Fit(0); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			name      string
			got, want *gp.GP
		}{{"objective", res.ObjGP, objGP}, {"constraint", res.ConGP, conGP}} {
			g, w := c.got, c.want
			if g.Lengthscale != w.Lengthscale || g.OutputScale != w.OutputScale || g.Mean != w.Mean {
				t.Fatalf("seed %d %s: hyperparameters (%v,%v,%v), replay (%v,%v,%v)", seed, c.name,
					g.Lengthscale, g.OutputScale, g.Mean, w.Lengthscale, w.OutputScale, w.Mean)
			}
			for _, x := range append(append([]float64(nil), cands...), xsOf(res.Evals)...) {
				m1, v1 := g.Posterior(x)
				m2, v2 := w.Posterior(x)
				if m1 != m2 || v1 != v2 {
					t.Fatalf("seed %d %s: posterior at %v (%v,%v), replay (%v,%v)", seed, c.name, x, m1, v1, m2, v2)
				}
			}
			gb, wb := g.JointPosteriorBlocks(cands), w.JointPosteriorBlocks(cands)
			for _, v := range []struct {
				name      string
				got, want []float64
			}{
				{"MeanObs", gb.MeanObs, wb.MeanObs}, {"MeanCand", gb.MeanCand, wb.MeanCand},
				{"CovObs", gb.CovObs.Data, wb.CovObs.Data}, {"Cross", gb.Cross.Data, wb.Cross.Data},
				{"VarCand", gb.VarCand, wb.VarCand},
			} {
				if !reflect.DeepEqual(v.got, v.want) {
					t.Fatalf("seed %d %s: posterior block %s differs from the replay", seed, c.name, v.name)
				}
			}
		}
	}
}

func xsOf(evals []Evaluation) []float64 {
	xs := make([]float64, len(evals))
	for i, e := range evals {
		xs[i] = e.X
	}
	return xs
}
