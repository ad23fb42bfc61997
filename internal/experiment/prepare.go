package experiment

import (
	"fmt"

	"tesla/internal/baselines"
	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/fleet"
	"tesla/internal/mlp"
	"tesla/internal/model"
	"tesla/internal/testbed"
)

// Scale trades experiment fidelity for wall-clock time. The paper collects
// one month of training traces and two weeks of test traces; PaperScale
// reproduces that, while CIScale keeps every pipeline stage identical but
// shrinks the trace so the full suite runs in seconds.
type Scale struct {
	Name        string
	SweepDays   float64 // training+test trace duration
	TrainFrac   float64 // chronological train/test split
	ModelStride int     // window subsampling for TESLA's model
	RecursiveW  int     // AR window of the Lazic/Wang baselines
	MLP         mlp.Config
	Seed        uint64
}

// CIScale runs the full pipeline on a two-day trace.
func CIScale() Scale {
	cfg := mlp.DefaultConfig()
	cfg.Epochs = 25
	return Scale{
		Name:        "ci",
		SweepDays:   3,
		TrainFrac:   0.67,
		ModelStride: 1,
		RecursiveW:  1,
		MLP:         cfg,
		Seed:        11,
	}
}

// PaperScale mirrors §5.1: one month of training data, two weeks of test.
func PaperScale() Scale {
	return Scale{
		Name:        "paper",
		SweepDays:   44,
		TrainFrac:   30.0 / 44.0,
		ModelStride: 7, // coprime with the 5-step set-point hold

		RecursiveW: 1,
		MLP:        mlp.DefaultConfig(),
		Seed:       11,
	}
}

// Artifacts bundles everything trained from the sweep trace.
type Artifacts struct {
	Scale  Scale
	Sweep  *dataset.Trace
	Train  *dataset.Trace
	Test   *dataset.Trace
	Model  *model.Model         // TESLA's DC time-series model
	Lazic  *baselines.Recursive // recursive OLS baseline (Table 3 + MPC)
	Wang   *baselines.Recursive // recursive MLP baseline (Table 3)
	TSRL   *control.TSRL        // offline-RL policy (Table 5)
	TBConf testbed.Config
}

// Prepare collects the training sweep and fits every model the evaluation
// needs. Pass wantWang=false to skip the (slow) MLP baseline when only the
// end-to-end experiments are required.
func Prepare(sc Scale, wantWang bool) (*Artifacts, error) {
	tbCfg := testbed.DefaultConfig()
	sweep, err := dataset.CollectSweep(tbCfg, dataset.DefaultSweep(sc.SweepDays, sc.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiment: collecting sweep: %w", err)
	}
	train, test := sweep.Split(sc.TrainFrac)

	a := &Artifacts{Scale: sc, Sweep: sweep, Train: train, Test: test, TBConf: tbCfg}

	mCfg := model.DefaultConfig(11)
	mCfg.Stride = sc.ModelStride
	if a.Model, err = model.Train(train, mCfg); err != nil {
		return nil, fmt.Errorf("experiment: training TESLA model: %w", err)
	}
	if a.Lazic, err = baselines.TrainLazic(train, sc.RecursiveW, sc.ModelStride); err != nil {
		return nil, fmt.Errorf("experiment: training Lazic baseline: %w", err)
	}
	if wantWang {
		if a.Wang, err = baselines.TrainWangMLP(train, sc.RecursiveW, sc.ModelStride, sc.MLP); err != nil {
			return nil, fmt.Errorf("experiment: training Wang baseline: %w", err)
		}
	}
	tsrlCfg := control.DefaultTSRLConfig(tbCfg.ACU.SetpointMinC, tbCfg.ACU.SetpointMaxC)
	if a.TSRL, err = control.TrainTSRL(train, tsrlCfg); err != nil {
		return nil, fmt.Errorf("experiment: training TSRL baseline: %w", err)
	}
	return a, nil
}

// NewTESLAPolicy builds the full TESLA controller from the artifacts.
func (a *Artifacts) NewTESLAPolicy(seed uint64) (*control.TESLA, error) {
	cfg := control.DefaultTESLAConfig(a.TBConf.ACU.SetpointMinC, a.TBConf.ACU.SetpointMaxC)
	cfg.Seed = seed
	return control.NewTESLA(a.Model, cfg)
}

// PolicyFactory is the one policy-name registry: it resolves name ("fixed",
// "modelfree", "tesla", "mpc", "lazic", "tsrl") to a per-room factory.
// fixed and modelfree need no training and never call train; the other
// names call it once, here, for the artifacts they are built from (train
// may be nil when a caller only runs the training-free policies). Sweeps
// that fan runs out in parallel call the factory once per run: tesla,
// lazic, mpc and modelfree controllers carry per-run state so each run needs
// its own instance, while the returned TSRL policy is the shared trained
// table (its Decide only reads) and Fixed is a value.
func PolicyFactory(name string, train func() (*Artifacts, error)) (fleet.PolicyFactory, error) {
	switch name {
	case "fixed":
		return func(int, uint64) (control.Policy, error) { return control.Fixed{SetpointC: 23}, nil }, nil
	case "modelfree":
		tb := testbed.DefaultConfig()
		return func(int, uint64) (control.Policy, error) {
			return NewModelFreePolicy(tb.ACU.SetpointMinC, tb.ACU.SetpointMaxC)
		}, nil
	case "tesla", "mpc", "lazic", "tsrl":
	default:
		return nil, fmt.Errorf("experiment: unknown policy %q (want fixed, modelfree, tesla, mpc, lazic or tsrl)", name)
	}
	if train == nil {
		return nil, fmt.Errorf("experiment: policy %q needs trained models", name)
	}
	a, err := train()
	if err != nil {
		return nil, err
	}
	switch name {
	case "tesla":
		return func(_ int, seed uint64) (control.Policy, error) { return a.NewTESLAPolicy(seed) }, nil
	case "mpc":
		return func(int, uint64) (control.Policy, error) { return a.NewMPCPolicy() }, nil
	case "lazic":
		return func(int, uint64) (control.Policy, error) { return a.NewLazicPolicy() }, nil
	}
	return func(int, uint64) (control.Policy, error) { return a.TSRL, nil }, nil
}

// NewPolicy builds a fresh policy instance by registry name from these
// artifacts (see PolicyFactory).
func (a *Artifacts) NewPolicy(name string, seed uint64) (control.Policy, error) {
	f, err := PolicyFactory(name, func() (*Artifacts, error) { return a, nil })
	if err != nil {
		return nil, err
	}
	return f(0, seed)
}

// NewLazicPolicy builds the Lazic MPC controller from the artifacts.
func (a *Artifacts) NewLazicPolicy() (*control.Lazic, error) {
	coldIdx := make([]int, 11)
	for i := range coldIdx {
		coldIdx[i] = i
	}
	cfg := control.DefaultLazicConfig(a.TBConf.ACU.SetpointMinC, a.TBConf.ACU.SetpointMaxC, coldIdx)
	return control.NewLazic(a.Lazic, cfg)
}
