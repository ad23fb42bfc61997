package experiment

import (
	"fmt"

	"tesla/internal/control"
	"tesla/internal/fleet"
	"tesla/internal/rng"
	"tesla/internal/scheduler"
	"tesla/internal/workload"
)

// The paper's §8 names fleet-level workload management as TESLA's next step:
// the cooling controller shapes the supply of cold air, a scheduler shapes
// the demand for it. RunFleetSchedulingStudy crosses the two axes — the
// scheduler ablation {none, defer, full} against the cooling policy
// {tesla, mpc, modelfree} — on one deliberately heterogeneous fleet, so the
// report answers both "what does thermal-aware placement buy" and "under
// which controller".

// SchedModes and SchedPolicies are the study's two axes.
var (
	SchedModes    = []scheduler.Mode{scheduler.ModeNone, scheduler.ModeDefer, scheduler.ModeFull}
	SchedPolicies = []string{"tesla", "mpc", "modelfree"}
)

// HeterogeneousSpecs builds the study's three-room fleet: a template room, a
// thermally weak room (under-provisioned ACU, light thermal mass, high base
// load — the room naive placement keeps hurting), and a large cool room with
// spare capacity.
func HeterogeneousSpecs(seed uint64) []fleet.RoomSpec {
	return []fleet.RoomSpec{
		{
			Name:    "room-std",
			Stream:  1,
			Profile: workload.NewDiurnal(workload.Medium, 43200, rng.SeedFor(seed, 102)),
		},
		{
			Name:    "room-weak",
			Stream:  2,
			Profile: workload.NewDiurnal(workload.High, 43200, rng.SeedFor(seed, 106)),
			// Calibrated so the room's base load alone stays (barely) inside
			// the limit but any batch placement tips it over: the cell naive
			// round-robin keeps violating and thermal-aware placement avoids.
			ACUCoolKW:   6.5,
			ThermalMass: 0.5,
		},
		{
			Name:    "room-big",
			Stream:  3,
			Profile: workload.NewDiurnal(workload.Medium, 43200, rng.SeedFor(seed, 110)),
			Servers: 28,
		},
	}
}

// TiledSpecs tiles the study's room archetypes (standard / weak / large) out
// to n rooms with distinct seed streams — the same shapes as
// HeterogeneousSpecs, at arbitrary scale. teslabench -bench scheduler and
// teslad -scheduler both build their fleets from this.
func TiledSpecs(n int, seed uint64) []fleet.RoomSpec {
	loads := []workload.Setting{workload.Medium, workload.High, workload.Medium}
	specs := make([]fleet.RoomSpec, n)
	for i := range specs {
		specs[i] = fleet.RoomSpec{
			Name:    fmt.Sprintf("room-%d", i),
			Stream:  uint64(i + 1),
			Profile: workload.NewDiurnal(loads[i%3], 43200, rng.SeedFor(seed, uint64(100+4*i))),
		}
		switch i % 3 {
		case 1: // thermally weak: base load barely fits, batch load tips it over
			specs[i].ACUCoolKW = 6.5
			specs[i].ThermalMass = 0.5
		case 2: // large and cool
			specs[i].Servers = 28
		}
	}
	return specs
}

// ScaledSchedJobs scales the batch queue with the fleet: two heavy deferrable
// jobs per room, staggered through the first half of the window.
func ScaledSchedJobs(rooms int, evalS float64) []scheduler.Job {
	n := 2 * rooms
	jobs := make([]scheduler.Job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, scheduler.Job{
			Name:        fmt.Sprintf("batch-%02d", i),
			SubmitS:     float64(i) * evalS / float64(5*n),
			Level:       0.5,
			DurationS:   5 * evalS / 6,
			Parallelism: 12,
			Deferrable:  true,
			MaxDeferS:   2 * evalS / 3,
		})
	}
	return jobs
}

// SchedStudyJobs is the study's batch queue: heavy long-running deferrable
// jobs arriving early in the window, sized so round-robin placement keeps
// re-loading the weak room while headroom-aware placement can absorb them on
// the big one.
func SchedStudyJobs(evalS float64) []scheduler.Job {
	jobs := make([]scheduler.Job, 0, 6)
	for i := 0; i < 6; i++ {
		jobs = append(jobs, scheduler.Job{
			Name:        fmt.Sprintf("batch-%c", 'a'+i),
			SubmitS:     float64(i) * evalS / 30,
			Level:       0.5,
			DurationS:   5 * evalS / 6,
			Parallelism: 12,
			Deferrable:  true,
			MaxDeferS:   2 * evalS / 3,
		})
	}
	return jobs
}

// NewMPCPolicy builds the receding-horizon MPC baseline over the trained
// recursive model (same plant model and cold-sensor set as the Lazic
// baseline — the two differ only in what they optimize).
func (a *Artifacts) NewMPCPolicy() (*control.MPC, error) {
	coldIdx := make([]int, 11)
	for i := range coldIdx {
		coldIdx[i] = i
	}
	cfg := control.DefaultMPCConfig(a.TBConf.ACU.SetpointMinC, a.TBConf.ACU.SetpointMaxC, coldIdx)
	return control.NewMPC(a.Lazic, cfg)
}

// NewModelFreePolicy builds the training-free intelligent-P baseline. It
// needs no artifacts beyond the testbed's set-point range, which is what
// makes it deployable on a cold fleet (teslad -policy modelfree).
func NewModelFreePolicy(spMin, spMax float64) (*control.ModelFree, error) {
	coldIdx := make([]int, 11)
	for i := range coldIdx {
		coldIdx[i] = i
	}
	return control.NewModelFree(control.DefaultModelFreeConfig(spMin, spMax, coldIdx))
}

// SchedFleetConfig assembles one cell's scheduled-fleet configuration.
func (a *Artifacts) SchedFleetConfig(mode scheduler.Mode, policy string, workers int, evalS float64, seed uint64) (scheduler.FleetConfig, error) {
	fc := fleet.Config{
		Testbed:    a.TBConf,
		Rooms:      HeterogeneousSpecs(seed),
		Seed:       seed,
		Workers:    workers,
		WarmupS:    600,
		EvalS:      evalS,
		InitSpC:    23,
		ColdLimitC: 22,
		NewPolicy: func(room int, policySeed uint64) (control.Policy, error) {
			return a.NewPolicy(policy, policySeed)
		},
	}
	return scheduler.FleetConfig{
		Fleet: fc,
		Sched: scheduler.DefaultConfig(mode),
		Jobs:  SchedStudyJobs(evalS),
	}, nil
}

// SchedCell is one (mode, policy) outcome.
type SchedCell struct {
	Mode   string `json:"mode"`
	Policy string `json:"policy"`

	CoolingKWh  float64 `json:"cooling_kwh"`
	PeakITKW    float64 `json:"peak_it_kw"`
	TrueTSVFrac float64 `json:"true_tsv_frac"`
	JointScore  float64 `json:"joint_score"`

	Completed    int     `json:"completed"`
	MeanWaitS    float64 `json:"mean_wait_s"`
	MeanLatencyS float64 `json:"mean_latency_s"`
	Placements   uint64  `json:"placements"`
	Deferrals    uint64  `json:"deferrals"`
	Migrations   uint64  `json:"migrations"`

	TrajectoryHash uint64 `json:"trajectory_hash"`
}

// FleetSchedulingStudy is the full cross.
type FleetSchedulingStudy struct {
	Rooms int         `json:"rooms"`
	Jobs  int         `json:"jobs"`
	EvalS float64     `json:"eval_s"`
	Cells []SchedCell `json:"cells"`
}

// Cell finds one outcome by coordinates.
func (s *FleetSchedulingStudy) Cell(mode, policy string) *SchedCell {
	for i := range s.Cells {
		if s.Cells[i].Mode == mode && s.Cells[i].Policy == policy {
			return &s.Cells[i]
		}
	}
	return nil
}

// JointImprovementPct is the headline number: the joint-score reduction of
// the full scheduler against no scheduler under the same policy.
func (s *FleetSchedulingStudy) JointImprovementPct(policy string) float64 {
	none, full := s.Cell("none", policy), s.Cell("full", policy)
	if none == nil || full == nil || none.JointScore == 0 {
		return 0
	}
	return 100 * (none.JointScore - full.JointScore) / none.JointScore
}

// RunFleetSchedulingStudy executes every (mode, policy) cell on the same
// heterogeneous fleet and job queue. Cells run sequentially (each fans its
// rooms over the worker pool); each cell's trajectories are deterministic in
// (seed, mode, policy) and independent of workers.
func RunFleetSchedulingStudy(a *Artifacts, workers int, evalS float64, seed uint64) (*FleetSchedulingStudy, error) {
	study := &FleetSchedulingStudy{Rooms: len(HeterogeneousSpecs(seed)), Jobs: len(SchedStudyJobs(evalS)), EvalS: evalS}
	for _, policy := range SchedPolicies {
		for _, mode := range SchedModes {
			cfg, err := a.SchedFleetConfig(mode, policy, workers, evalS, seed)
			if err != nil {
				return nil, err
			}
			res, err := scheduler.RunFleet(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiment: scheduling cell %s×%s: %w", mode, policy, err)
			}
			study.Cells = append(study.Cells, SchedCell{
				Mode:           mode.String(),
				Policy:         policy,
				CoolingKWh:     res.CoolingKWh,
				PeakITKW:       res.PeakITKW,
				TrueTSVFrac:    res.TrueTSVFrac,
				JointScore:     res.JointScore,
				Completed:      res.Jobs.Completed,
				MeanWaitS:      res.Jobs.MeanWaitS,
				MeanLatencyS:   res.Jobs.MeanLatencyS,
				Placements:     res.Sched.Placements,
				Deferrals:      res.Sched.Deferrals,
				Migrations:     res.Sched.MigrationsTotal(),
				TrajectoryHash: res.TrajectoryHash,
			})
		}
	}
	return study, nil
}
