package scheduler

import (
	"fmt"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/parallel"
	"tesla/internal/workload"
)

// FleetConfig assembles a scheduled fleet run: a fleet of rooms (each with
// its own plant, profile base load, control policy and safety supervisor)
// plus a global batch-job queue the scheduler places across them.
type FleetConfig struct {
	// Fleet is the underlying room fleet. All rooms share the template's
	// SamplePeriodS and WarmupS, so the fleet steps in lockstep.
	Fleet fleet.Config
	// Sched tunes the placement/deferral/migration thresholds.
	Sched Config
	// Jobs is the batch queue; SubmitS is relative to evaluation start.
	Jobs []Job
	// ViolationKWh prices one room-step of true (ground-truth) cold-aisle
	// violation in kWh-equivalents for the joint objective
	// (<= 0 selects 0.25). The joint score is what the co-optimization is
	// judged on: cooling energy alone would reward parking every job on the
	// hottest room and letting it burn.
	ViolationKWh float64
}

// FleetResult is a scheduled fleet run's outcome.
type FleetResult struct {
	// Rooms are the per-room authoritative results (bit-identical to the
	// same rooms in an unscheduled fleet run when no jobs are submitted).
	Rooms []fleet.RoomResult `json:"rooms"`
	// Sched and Jobs summarize the scheduler's decisions and the queue's
	// outcome.
	Sched Counters `json:"sched"`
	Jobs  JobStats `json:"jobs"`

	// CoolingKWh sums per-room cooling energy; PeakITKW is the maximum
	// fleet-total IT power observed at any step barrier — the demand-charge
	// proxy placement smooths.
	CoolingKWh float64 `json:"cooling_kwh"`
	PeakITKW   float64 `json:"peak_it_kw"`
	// TrueTSVFrac is the fleet mean ground-truth violation fraction;
	// TrueViolationSteps the total violating room-steps behind it.
	TrueTSVFrac        float64 `json:"true_tsv_frac"`
	TrueViolationSteps float64 `json:"true_violation_steps"`
	// JointScore = CoolingKWh + ViolationKWh × TrueViolationSteps: the
	// single number the scheduling study compares across cells.
	JointScore float64 `json:"joint_score"`

	// TrajectoryHash folds the per-room trajectory hashes in room order —
	// the fleet-level bit-identity witness for the determinism tests.
	TrajectoryHash uint64 `json:"trajectory_hash"`

	TotalSteps  int     `json:"total_steps"`
	WallSeconds float64 `json:"wall_seconds"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// Harness steps a fleet of rooms in lockstep with a scheduler deciding at
// every step barrier. Between barriers the rooms advance concurrently over
// the worker pool; at the barrier the scheduler reads every room's delivered
// telemetry (in room-index order) and mutates the per-room orchestrators.
// Because per-room steps are independent given the committed batch loads,
// and the scheduler's decisions are a pure function of the gathered states,
// the whole run is bit-identical for any worker count.
type Harness struct {
	cfg     FleetConfig
	runners []*fleet.Runner
	sched   *Scheduler
	step    int
	t0      float64
	peakIT  float64
	start   time.Time
	stepped int
}

// NewHarness builds and warms up every room (concurrently), attaches an
// additive job orchestrator to each plant, and queues the configured jobs.
// Orchestrators attach after warm-up and start empty, so a run with no jobs
// is bit-identical to the same fleet without a scheduler.
func NewHarness(cfg FleetConfig) (*Harness, error) {
	if err := cfg.Fleet.Validate(); err != nil {
		return nil, err
	}
	if cfg.ViolationKWh <= 0 {
		cfg.ViolationKWh = 0.25
	}
	runners, err := parallel.MapErr(cfg.Fleet.Workers, len(cfg.Fleet.Rooms), func(i int) (*fleet.Runner, error) {
		return fleet.NewRunner(cfg.Fleet, i, nil, "scheduler")
	})
	if err != nil {
		for _, r := range runners {
			if r != nil {
				r.Abandon()
			}
		}
		return nil, err
	}

	orchs := make([]*workload.Orchestrator, len(runners))
	names := make([]string, len(runners))
	for i, r := range runners {
		o := workload.NewOrchestrator(r.Plant().Cluster)
		o.Additive = true
		r.Plant().AttachOrchestrator(o)
		orchs[i] = o
		names[i] = cfg.Fleet.RoomName(i)
	}

	sched, err := New(cfg.Sched, orchs, names)
	if err != nil {
		for _, r := range runners {
			r.Abandon()
		}
		return nil, err
	}

	h := &Harness{
		cfg:     cfg,
		runners: runners,
		sched:   sched,
		t0:      runners[0].Plant().TimeS(),
		start:   time.Now(),
	}
	for _, j := range cfg.Jobs {
		if err := sched.Submit(j, h.t0+j.SubmitS); err != nil {
			for _, r := range runners {
				r.Abandon()
			}
			return nil, err
		}
	}
	return h, nil
}

// Done reports whether every room's horizon is complete.
func (h *Harness) Done() bool {
	for _, r := range h.runners {
		if !r.Done() {
			return false
		}
	}
	return true
}

// Scheduler exposes the harness's scheduler for live counters.
func (h *Harness) Scheduler() *Scheduler { return h.sched }

// Now is the simulation time of the next step barrier.
func (h *Harness) Now() float64 { return h.runners[0].Plant().TimeS() }

// Runner exposes room i's runner for operator endpoints. Between Step calls
// the harness is quiescent, so its Status and LastSample (the delivered
// telemetry the scheduler decides on) are safe to read; it must not be
// stepped, drained or finished outside the harness.
func (h *Harness) Runner(i int) *fleet.Runner { return h.runners[i] }

// states gathers the per-room observations for the scheduler, in room-index
// order, from each room's delivered telemetry.
func (h *Harness) states() []RoomState {
	out := make([]RoomState, len(h.runners))
	for i, r := range h.runners {
		s := r.LastSample()
		out[i] = RoomState{
			HeadroomC: h.cfg.Sched.ColdLimitC - s.MaxColdAisle,
			Duty:      s.ACUDuty,
			ITPowerKW: s.TotalIT,
		}
	}
	return out
}

// Step runs one fleet step: scheduler decisions at the barrier, then every
// room advances one control step over the worker pool.
func (h *Harness) Step() error {
	if h.Done() {
		return fmt.Errorf("scheduler: fleet horizon complete")
	}
	now := h.Now()
	if err := h.sched.Step(h.step, now, h.states()); err != nil {
		return err
	}
	_, err := parallel.MapErr(h.cfg.Fleet.Workers, len(h.runners), func(i int) (struct{}, error) {
		return struct{}{}, h.runners[i].Step()
	})
	if err != nil {
		return err
	}
	h.step++
	h.stepped++

	var it float64
	for _, r := range h.runners {
		it += r.LastSample().TotalIT
	}
	if it > h.peakIT {
		h.peakIT = it
	}
	return nil
}

// Finish completes every room and aggregates the fleet result.
func (h *Harness) Finish() (*FleetResult, error) {
	if !h.Done() {
		return nil, fmt.Errorf("scheduler: finish before the horizon is complete")
	}
	wall := time.Since(h.start)
	rooms, err := parallel.MapErr(h.cfg.Fleet.Workers, len(h.runners), func(i int) (fleet.RoomResult, error) {
		return h.runners[i].Finish()
	})
	if err != nil {
		return nil, err
	}

	res := &FleetResult{
		Rooms:       rooms,
		Sched:       h.sched.Counters(),
		Jobs:        h.sched.Stats(h.Now()),
		PeakITKW:    h.peakIT,
		WallSeconds: wall.Seconds(),
	}
	const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)
	hash := fnvOffset
	var tsvSum float64
	for _, rr := range rooms {
		res.CoolingKWh += rr.CEkWh
		res.TotalSteps += rr.Steps
		res.TrueViolationSteps += rr.TrueTSVFrac * float64(rr.Steps)
		tsvSum += rr.TrueTSVFrac
		for shift := 0; shift < 64; shift += 8 {
			hash = (hash ^ (rr.TrajectoryHash >> shift & 0xff)) * fnvPrime
		}
	}
	res.TrajectoryHash = hash
	if len(rooms) > 0 {
		res.TrueTSVFrac = tsvSum / float64(len(rooms))
	}
	res.JointScore = res.CoolingKWh + h.cfg.ViolationKWh*res.TrueViolationSteps
	if res.WallSeconds > 0 {
		res.StepsPerSec = float64(res.TotalSteps) / res.WallSeconds
	}
	return res, nil
}

// Abandon releases every room without finishing (error paths).
func (h *Harness) Abandon() {
	for _, r := range h.runners {
		r.Abandon()
	}
}

// RunFleet executes a scheduled fleet run end to end.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	h, err := NewHarness(cfg)
	if err != nil {
		return nil, err
	}
	for !h.Done() {
		if err := h.Step(); err != nil {
			h.Abandon()
			return nil, err
		}
	}
	return h.Finish()
}
