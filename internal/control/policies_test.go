package control

import (
	"math"
	"sync"
	"testing"

	"tesla/internal/baselines"
	"tesla/internal/dataset"
	"tesla/internal/model"
	"tesla/internal/rng"
	"tesla/internal/stats"
	"tesla/internal/testbed"
)

// learnableTrace mirrors the synthetic dynamics of the model tests: the
// inlet relaxes toward the set-point, DC sensors follow the inlet, ACU
// power falls with the set-point/inlet residual.
func learnableTrace(n int, seed uint64) *dataset.Trace {
	r := rng.New(seed)
	tr := dataset.NewTrace(60, 2, 3)
	a := []float64{24, 24}
	sp := 24.0
	p := 0.15
	for i := 0; i < n; i++ {
		if i%6 == 0 {
			sp = 21 + 8*r.Float64()
		}
		p = stats.Clamp(p+0.004*r.Norm(), 0.1, 0.3)
		for j := range a {
			a[j] = 0.85*a[j] + 0.15*sp + 0.5*(p-0.2) + 0.02*r.Norm()
		}
		dc := make([]float64, 3)
		for k := range dc {
			dc[k] = a[0] - 4 + 0.3*float64(k) + p + 0.02*r.Norm()
		}
		power := math.Max(0.1, 1.8-0.45*(sp-a[0]))
		tr.Append(testbed.Sample{
			TimeS: float64(i) * 60, SetpointC: sp, AvgServerKW: p,
			ACUPowerKW: power, ACUTemps: append([]float64(nil), a...),
			DCTemps: dc, MaxColdAisle: dc[2],
		})
	}
	return tr
}

func smallModel(t *testing.T, seed uint64) *model.Model {
	t.Helper()
	tr := learnableTrace(700, seed)
	train, _ := tr.Split(0.8)
	cfg := model.DefaultConfig(3) // all three DC sensors are "cold aisle"
	cfg.L = 6
	m, err := model.Train(train, cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return m
}

func fastTESLAConfig() TESLAConfig {
	cfg := DefaultTESLAConfig(20, 35)
	cfg.BO.InitPoints = 5
	cfg.BO.Iterations = 3
	cfg.BO.QMCSamples = 16
	cfg.BO.Candidates = 31
	return cfg
}

func TestNewTESLAValidation(t *testing.T) {
	m := smallModel(t, 1)
	if _, err := NewTESLA(nil, fastTESLAConfig()); err == nil {
		t.Fatalf("nil model accepted")
	}
	bad := fastTESLAConfig()
	bad.SmoothN = 0
	if _, err := NewTESLA(m, bad); err == nil {
		t.Fatalf("zero smoothing accepted")
	}
	bad = fastTESLAConfig()
	bad.InterruptionWeight = -1
	if _, err := NewTESLA(m, bad); err == nil {
		t.Fatalf("negative weight accepted")
	}
	bad = fastTESLAConfig()
	bad.BO.InitPoints = 0
	if _, err := NewTESLA(m, bad); err == nil {
		t.Fatalf("invalid BO config accepted")
	}
}

func TestTESLADecideStaysInRangeAndMatures(t *testing.T) {
	m := smallModel(t, 2)
	ctrl, err := NewTESLA(m, fastTESLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Name() != "tesla" {
		t.Fatalf("name %q", ctrl.Name())
	}
	tr := learnableTrace(40, 3)
	// Early steps (not enough history) must return the smoothed initial
	// set-point, not crash.
	if got := ctrl.Decide(tr, 2); math.Abs(got-23) > 1e-9 {
		t.Fatalf("pre-history decision %g, want 23", got)
	}
	for step := 6; step < 39; step++ {
		got := ctrl.Decide(tr, step)
		if got < 20 || got > 35 {
			t.Fatalf("decision %g outside the ACU range", got)
		}
	}
	if ctrl.LastResult() == nil {
		t.Fatalf("optimizer state not exposed")
	}
	// With >L decided steps on a 40-step trace, some predictions matured.
	if ctrl.Monitor().ObjectiveCount() == 0 || ctrl.Monitor().ConstraintCount() == 0 {
		t.Fatalf("error monitor never fed: %d/%d",
			ctrl.Monitor().ObjectiveCount(), ctrl.Monitor().ConstraintCount())
	}
	if ctrl.LastComputed() < 20 || ctrl.LastComputed() > 35 {
		t.Fatalf("raw computed set-point %g out of range", ctrl.LastComputed())
	}
}

func TestTESLAInterruptionWeightZeroAllowsHigherSetpoints(t *testing.T) {
	// Ablation mechanics: without the D̂ penalty the optimizer should pick
	// set-points at least as high (it only removes a monotone penalty on
	// high candidates).
	m := smallModel(t, 4)
	tr := learnableTrace(60, 5)

	withD, err := NewTESLA(m, fastTESLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgNoD := fastTESLAConfig()
	cfgNoD.InterruptionWeight = 0
	withoutD, err := NewTESLA(m, cfgNoD)
	if err != nil {
		t.Fatal(err)
	}
	var sumD, sumNoD float64
	n := 0
	for step := 6; step < 59; step++ {
		sumD += withD.Decide(tr, step)
		sumNoD += withoutD.Decide(tr, step)
		n++
	}
	if sumNoD/float64(n) < sumD/float64(n)-0.5 {
		t.Fatalf("removing the interruption penalty should not lower set-points: %g vs %g",
			sumNoD/float64(n), sumD/float64(n))
	}
}

func TestLazicValidation(t *testing.T) {
	tr := learnableTrace(500, 6)
	train, _ := tr.Split(0.8)
	rec, err := baselines.TrainLazic(train, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLazic(nil, DefaultLazicConfig(20, 35, []int{0})); err == nil {
		t.Fatalf("nil model accepted")
	}
	bad := DefaultLazicConfig(20, 35, []int{0})
	bad.GradIters = 0
	if _, err := NewLazic(rec, bad); err == nil {
		t.Fatalf("zero iterations accepted")
	}
	bad = DefaultLazicConfig(20, 35, nil)
	if _, err := NewLazic(rec, bad); err == nil {
		t.Fatalf("empty cold set accepted")
	}
}

func TestLazicPicksBoundaryAndBacksOff(t *testing.T) {
	tr := learnableTrace(700, 7)
	train, test := tr.Split(0.8)
	rec, err := baselines.TrainLazic(train, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLazicConfig(20, 35, []int{0, 1, 2})
	cfg.L = 6
	// In the synthetic dynamics cold ≈ inlet − 4 + …, so limit 22 puts the
	// boundary around set-point 25–26.
	lz, err := NewLazic(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lz.Name() != "lazic" {
		t.Fatalf("name %q", lz.Name())
	}
	got := lz.Decide(test, test.Len()-1)
	if got < 23 || got > 28 {
		t.Fatalf("Lazic decision %g outside the plausible boundary band [23,28]", got)
	}
	// With an impossible limit the S_min backup must fire.
	cfgHard := cfg
	cfgHard.ColdLimitC = 5
	lzHard, err := NewLazic(rec, cfgHard)
	if err != nil {
		t.Fatal(err)
	}
	if got := lzHard.Decide(test, test.Len()-1); got != 20 {
		t.Fatalf("infeasible limit should trigger S_min, got %g", got)
	}
	// Too little history: falls back to the initial set-point.
	short := learnableTrace(2, 8)
	if got := lz.Decide(short, 0); got != cfg.InitialSetpointC {
		t.Fatalf("pre-history Lazic decision %g", got)
	}
}

// TestTESLALogsTheEvaluatedScore checks that the prediction a decision logs
// for maturation is the optimizer's own evaluation of the chosen set-point,
// bit for bit equal to a fresh model prediction there — on feasible
// decisions and on the S_min backstop.
func TestTESLALogsTheEvaluatedScore(t *testing.T) {
	m := smallModel(t, 4)
	tr := learnableTrace(40, 5)
	L := m.Config().L
	for _, margin := range []float64{0.45, 100} {
		cfg := fastTESLAConfig()
		cfg.ConstraintMarginC = margin // 100 °C leaves nothing feasible
		ctrl, err := NewTESLA(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := L; step < 30; step++ {
			ctrl.Decide(tr, step)
			res := ctrl.LastResult()
			if res == nil {
				t.Fatalf("step %d: no optimizer result", step)
			}
			if margin == 100 && (res.Feasible || res.X != cfg.BO.Min) {
				t.Fatalf("step %d: expected the S_min backstop, got %+v", step, res.X)
			}
			if _, ok := ctrl.scoreOf(res.X); !ok {
				t.Fatalf("step %d: chosen set-point %g was never evaluated", step, res.X)
			}
			h, err := model.HistoryAt(tr, step, L)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.Predict(h, res.X)
			if err != nil {
				t.Fatal(err)
			}
			got := ctrl.pending[len(ctrl.pending)-1]
			wantObj := p.EnergyNorm + cfg.InterruptionWeight*p.InterruptionNorm
			wantCold := p.Constraint + m.Config().AllowedColdC
			if got.decidedAt != step || got.predObj != wantObj || got.predMaxCold != wantCold {
				t.Fatalf("step %d: logged %+v, fresh prediction obj=%v maxCold=%v", step, got, wantObj, wantCold)
			}
		}
	}
}

// TestLastResultSurvivesNextDecision: the optimizer reuses its surrogate
// views and posterior scratch within a run and across none, so the
// surrogates LastResult exposes after decision k must read bit-unchanged
// after decision k+1.
func TestLastResultSurvivesNextDecision(t *testing.T) {
	m := smallModel(t, 6)
	ctrl, err := NewTESLA(m, fastTESLAConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := learnableTrace(40, 7)
	ctrl.Decide(tr, 10)
	held := ctrl.LastResult()
	type post struct{ objM, objV, conM, conV float64 }
	read := func() []post {
		var out []post
		for _, e := range held.Evals {
			var p post
			p.objM, p.objV = held.ObjGP.Posterior(e.X)
			p.conM, p.conV = held.ConGP.Posterior(e.X)
			out = append(out, p)
		}
		return out
	}
	before := read()
	// The result's surrogates are snapshots: their posterior blocks are the
	// caller's, not scratch a later call overwrites.
	blocks := held.ObjGP.JointPosteriorBlocks([]float64{21, 27, 33})
	cross := append([]float64(nil), blocks.Cross.Data...)
	held.ObjGP.JointPosteriorBlocks([]float64{22, 30})
	for i, v := range cross {
		if blocks.Cross.Data[i] != v {
			t.Fatalf("a second posterior call rewrote the first one's blocks")
		}
	}
	ctrl.Decide(tr, 11)
	if ctrl.LastResult() == held {
		t.Fatalf("decision k+1 did not produce a new result")
	}
	after := read()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("evaluation %d: posterior %+v after the next decision, %+v before", i, after[i], before[i])
		}
	}
}

// TestTESLAControllersShareModel: two controllers over one *model.Model
// decide concurrently and must reproduce their serial decisions exactly —
// every per-decision scratch lives in the controller, the Prepared history
// and the optimizer run, never in the model. Run under -race -cpu 1,4.
func TestTESLAControllersShareModel(t *testing.T) {
	m := smallModel(t, 8)
	traces := []*dataset.Trace{learnableTrace(40, 9), learnableTrace(40, 10)}
	decide := func(ctrl *TESLA, tr *dataset.Trace) []float64 {
		var out []float64
		for step := 6; step < 30; step++ {
			out = append(out, ctrl.Decide(tr, step))
		}
		return out
	}
	newCtrl := func(seed uint64) *TESLA {
		cfg := fastTESLAConfig()
		cfg.Seed = seed
		ctrl, err := NewTESLA(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	want := make([][]float64, len(traces))
	for i, tr := range traces {
		want[i] = decide(newCtrl(uint64(i+1)), tr)
	}
	got := make([][]float64, len(traces))
	var wg sync.WaitGroup
	for i, tr := range traces {
		ctrl := newCtrl(uint64(i + 1))
		wg.Add(1)
		go func(i int, tr *dataset.Trace) {
			defer wg.Done()
			got[i] = decide(ctrl, tr)
		}(i, tr)
	}
	wg.Wait()
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("controller %d step %d: concurrent %v, serial %v", i, k, got[i][k], want[i][k])
			}
		}
	}
}
