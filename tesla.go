// Package tesla is the public API of the TESLA reproduction — a thermally
// safe, load-aware, energy-efficient cooling control system for data centers
// (Geng et al., ICPP 2024), rebuilt in pure Go on top of a simulated testbed.
//
// The package wraps the internal pipeline into three workflows:
//
//   - Prepare: collect training traces on the simulated testbed (the §5.1
//     set-point sweep under stratified diurnal loads) and train TESLA's DC
//     time-series model plus every baseline.
//   - Run: closed-loop control experiments for any policy (fixed set-point,
//     TESLA, Lazic et al. MPC, TSRL offline RL) under any load setting,
//     returning the paper's end-to-end metrics.
//   - Reproduce: regenerate each table and figure of the paper's evaluation.
//
// A minimal session:
//
//	sys, err := tesla.Prepare(tesla.ScaleCI)
//	if err != nil { ... }
//	m, err := sys.Run(tesla.PolicyTESLA, tesla.LoadMedium, 6*time.Hour, 1)
//	fmt.Printf("cooling energy: %.1f kWh, violations: %.1f%%\n",
//	    m.CoolingEnergyKWh, 100*m.ThermalViolationFrac)
package tesla

import (
	"fmt"
	"io"
	"time"

	"tesla/internal/experiment"
	"tesla/internal/workload"
)

// ScaleName selects the fidelity of trace collection and training.
type ScaleName string

// Available preparation scales.
const (
	// ScaleCI runs the full pipeline on a three-day trace (seconds of CPU).
	ScaleCI ScaleName = "ci"
	// ScalePaper mirrors §5.1: one month of training + two weeks of test.
	ScalePaper ScaleName = "paper"
)

// Load names one of the three server-load settings of the evaluation.
type Load string

// Available load settings (§5.1).
const (
	LoadIdle   Load = "idle"
	LoadMedium Load = "medium" // 20 % average CPU over the 12-hour diurnal
	LoadHigh   Load = "high"   // 40 % average CPU over the 12-hour diurnal
)

// PolicyName selects a cooling-control policy.
type PolicyName string

// Available policies (§5.3).
const (
	PolicyFixed PolicyName = "fixed" // constant 23 °C set-point
	PolicyTESLA PolicyName = "tesla" // the full §3 controller
	PolicyLazic PolicyName = "lazic" // Lazic et al. MPC baseline
	PolicyTSRL  PolicyName = "tsrl"  // offline-RL baseline
)

// Metrics are the end-to-end quantities of Table 5.
type Metrics struct {
	Policy               string
	Load                 string
	CoolingEnergyKWh     float64
	ThermalViolationFrac float64 // fraction of steps with max cold aisle > 22 °C
	InterruptionFrac     float64 // fraction of steps with ACU power < 100 W
	MeanSetpointC        float64
	MaxColdAisleC        float64
}

func fromMetrics(m experiment.Metrics) Metrics {
	return Metrics{
		Policy:               m.Policy,
		Load:                 m.Load.String(),
		CoolingEnergyKWh:     m.CEkWh,
		ThermalViolationFrac: m.TSVFrac,
		InterruptionFrac:     m.CIFrac,
		MeanSetpointC:        m.MeanSp,
		MaxColdAisleC:        m.MaxCold,
	}
}

// System is a prepared TESLA deployment: trained models plus the simulated
// testbed configuration they were trained against.
type System struct {
	art *experiment.Artifacts
}

// Prepare collects the training sweep and fits every model. ScaleCI takes a
// few seconds; ScalePaper collects the paper's full 44 simulated days and
// takes minutes.
func Prepare(scale ScaleName) (*System, error) {
	return PrepareWithBaselines(scale, true)
}

// PrepareWithBaselines is Prepare with control over whether the (slow) MLP
// temperature baseline for Table 3 is trained.
func PrepareWithBaselines(scale ScaleName, wantWang bool) (*System, error) {
	var sc experiment.Scale
	switch scale {
	case ScaleCI:
		sc = experiment.CIScale()
	case ScalePaper:
		sc = experiment.PaperScale()
	default:
		return nil, fmt.Errorf("tesla: unknown scale %q (ci|paper)", scale)
	}
	art, err := experiment.Prepare(sc, wantWang)
	if err != nil {
		return nil, err
	}
	return &System{art: art}, nil
}

// Run executes one closed-loop experiment: the policy controls the simulated
// testbed under the given diurnal load for the given duration (the paper
// evaluates 12-hour windows).
func (s *System) Run(p PolicyName, load Load, duration time.Duration, seed uint64) (Metrics, error) {
	set, err := workload.ParseSetting(string(load))
	if err != nil {
		return Metrics{}, err
	}
	pol, err := s.art.NewPolicy(string(p), seed)
	if err != nil {
		return Metrics{}, err
	}
	rc := experiment.DefaultRunConfig(pol, set, seed)
	rc.EvalS = duration.Seconds()
	_, m, err := experiment.Run(rc)
	if err != nil {
		return Metrics{}, err
	}
	return fromMetrics(m), nil
}

// ModelAccuracy reports the Table 3 / Table 4 prediction benchmarks:
// DC-temperature MAPE for TESLA vs the recursive OLS (Lazic) and recursive
// MLP (Wang) baselines, and cooling-energy MAPE for TESLA vs MLP, GBT and
// random forest.
type ModelAccuracy struct {
	TempTESLA, TempLazic, TempWang                  float64
	EnergyTESLA, EnergyMLP, EnergyGBT, EnergyForest float64
}

// ModelAccuracy benchmarks the trained models on the held-out test trace.
func (s *System) ModelAccuracy() (ModelAccuracy, error) {
	t3, err := experiment.Table3(s.art, 7)
	if err != nil {
		return ModelAccuracy{}, err
	}
	t4, err := experiment.Table4(s.art, 7)
	if err != nil {
		return ModelAccuracy{}, err
	}
	return ModelAccuracy{
		TempTESLA: t3.TESLAMape, TempLazic: t3.LazicMape, TempWang: t3.WangMape,
		EnergyTESLA: t4.TESLAMape, EnergyMLP: t4.MLPMape,
		EnergyGBT: t4.GBTMape, EnergyForest: t4.ForestMape,
	}, nil
}

// EndToEnd runs the paper's Table 5 benchmark: all four policies under all
// three load settings for the given window, returning one Metrics per cell
// plus the CE saving relative to the fixed 23 °C policy.
type EndToEndRow struct {
	Metrics
	SavingPct float64
}

// EndToEnd runs the full policy×load matrix (Table 5).
func (s *System) EndToEnd(duration time.Duration, seed uint64) ([]EndToEndRow, error) {
	cfg := experiment.DefaultTable5Config()
	cfg.EvalS = duration.Seconds()
	cfg.Seed = seed
	res, err := experiment.Table5(s.art, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]EndToEndRow, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, EndToEndRow{Metrics: fromMetrics(r.Metrics), SavingPct: r.SavingPct})
	}
	return out, nil
}

// WriteReport runs the complete evaluation (model accuracy, end-to-end
// matrix, ablations, fault matrix) and renders it as markdown.
func (s *System) WriteReport(w io.Writer, duration time.Duration) error {
	t3, err := experiment.Table3(s.art, 9)
	if err != nil {
		return err
	}
	t4, err := experiment.Table4(s.art, 9)
	if err != nil {
		return err
	}
	cfg := experiment.DefaultTable5Config()
	cfg.EvalS = duration.Seconds()
	t5, err := experiment.Table5(s.art, cfg)
	if err != nil {
		return err
	}
	study, err := experiment.RunAblations(s.art, workload.Medium, duration.Seconds(), 31)
	if err != nil {
		return err
	}
	matrix, err := experiment.RunFaultMatrix(s.art, workload.Medium, duration.Seconds(), 17)
	if err != nil {
		return err
	}
	rep := &experiment.Report{
		ScaleName: s.art.Scale.Name,
		Generated: time.Now(),
		Table3:    &t3, Table4: &t4, Table5: &t5,
		Study: &study, Matrix: &matrix,
	}
	return rep.WriteMarkdown(w)
}

// Artifacts exposes the internal trained artifacts for the cmd/ tools and
// benchmarks inside this module. It is not part of the stable API surface.
func (s *System) Artifacts() *experiment.Artifacts { return s.art }
