package main

import (
	"fmt"
	"io"

	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/scheduler"
	"tesla/internal/testbed"
)

// schedBenchRow is one cell of the rooms × policy × scheduler-mode sweep.
type schedBenchRow struct {
	Rooms  int    `json:"rooms"`
	Policy string `json:"policy"`
	Mode   string `json:"mode"`
	Steps  int    `json:"steps"`

	StepsPerSec float64 `json:"steps_per_sec"`
	WallSeconds float64 `json:"wall_seconds"`

	CoolingKWh  float64 `json:"cooling_kwh"`
	TrueTSVFrac float64 `json:"true_tsv_frac"`
	JointScore  float64 `json:"joint_score"`
	// JointDeltaPct is this cell's joint-score change against the
	// no-scheduler cell of the same (rooms, policy): negative = the
	// scheduler helped.
	JointDeltaPct float64 `json:"joint_delta_pct"`

	Placements uint64 `json:"placements"`
	Deferrals  uint64 `json:"deferrals"`
	Migrations uint64 `json:"migrations"`
	Completed  int    `json:"completed"`
}

// schedBenchConfig sizes the rooms × policy × mode sweep.
type schedBenchConfig struct {
	Rooms        []int  `json:"rooms"`
	StepsPerRoom int    `json:"steps_per_room"`
	Seed         uint64 `json:"seed"`
}

var defaultSchedBench = schedBenchConfig{Rooms: []int{3, 6}, StepsPerRoom: 30, Seed: 13}

// schedJointCheck is the sweep's non-regression gate: within every
// (rooms, policy) group the full scheduler must not score worse on the joint
// objective than no scheduler.
func schedJointCheck(rows []schedBenchRow) error {
	type group struct {
		rooms  int
		policy string
	}
	none := map[group]float64{}
	for _, r := range rows {
		if r.Mode == scheduler.ModeNone.String() {
			none[group{r.Rooms, r.Policy}] = r.JointScore
		}
	}
	for _, r := range rows {
		base, ok := none[group{r.Rooms, r.Policy}]
		if r.Mode == scheduler.ModeFull.String() && (!ok || r.JointScore > base) {
			return fmt.Errorf("REGRESSION: rooms=%d policy=%s full joint %.3f worse than none %.3f",
				r.Rooms, r.Policy, r.JointScore, base)
		}
	}
	return nil
}

// runSchedBench sweeps the fleet scheduler over rooms × policy × mode. The
// policies are the training-free ones (fixed, modelfree) so the sweep needs
// no Prepare and measures scheduling + physics, not model inference. The
// sweep hard-asserts the joint objective is non-regressing: within every
// (rooms, policy) group the full scheduler must not score worse than no
// scheduler — a broken placement heuristic fails the bench, not just a
// later diff of the JSON.
func runSchedBench(w io.Writer, c schedBenchConfig) ([]schedBenchRow, error) {
	var rows []schedBenchRow
	modes := []scheduler.Mode{scheduler.ModeNone, scheduler.ModeDefer, scheduler.ModeFull}

	fmt.Fprintf(w, "fleet scheduler sweep: %d steps/room, seed %d, training-free policies\n", c.StepsPerRoom, c.Seed)
	fmt.Fprintf(w, "  %5s %-10s %-6s %7s %10s %9s %8s %7s %6s %6s %5s\n",
		"rooms", "policy", "mode", "steps", "steps/s", "CE(kWh)", "tTSV(%)", "joint", "Δ(%)", "defer", "migr")
	for _, rooms := range c.Rooms {
		for _, policy := range []string{"fixed", "modelfree"} {
			factory, err := experiment.PolicyFactory(policy, nil)
			if err != nil {
				return nil, err
			}
			var noneJoint float64
			for _, mode := range modes {
				evalS := float64(c.StepsPerRoom) * 60
				fc := fleet.Config{
					Testbed:    testbed.DefaultConfig(),
					Rooms:      experiment.TiledSpecs(rooms, c.Seed),
					Seed:       c.Seed,
					WarmupS:    600,
					EvalS:      evalS,
					InitSpC:    23,
					ColdLimitC: 22,
					NewPolicy:  factory,
				}
				res, err := scheduler.RunFleet(scheduler.FleetConfig{
					Fleet: fc,
					Sched: scheduler.DefaultConfig(mode),
					Jobs:  experiment.ScaledSchedJobs(rooms, evalS),
				})
				if err != nil {
					return nil, fmt.Errorf("rooms=%d policy=%s mode=%s: %w", rooms, policy, mode, err)
				}
				row := schedBenchRow{
					Rooms: rooms, Policy: policy, Mode: mode.String(),
					Steps:       res.TotalSteps,
					StepsPerSec: res.StepsPerSec,
					WallSeconds: res.WallSeconds,
					CoolingKWh:  res.CoolingKWh,
					TrueTSVFrac: res.TrueTSVFrac,
					JointScore:  res.JointScore,
					Placements:  res.Sched.Placements,
					Deferrals:   res.Sched.Deferrals,
					Migrations:  res.Sched.MigrationsTotal(),
					Completed:   res.Jobs.Completed,
				}
				switch mode {
				case scheduler.ModeNone:
					noneJoint = res.JointScore
				default:
					if noneJoint > 0 {
						row.JointDeltaPct = 100 * (res.JointScore - noneJoint) / noneJoint
					}
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "  %5d %-10s %-6s %7d %10.0f %9.2f %8.2f %7.2f %+6.1f %6d %5d\n",
					rooms, policy, mode, res.TotalSteps, res.StepsPerSec, res.CoolingKWh,
					100*res.TrueTSVFrac, res.JointScore, row.JointDeltaPct,
					res.Sched.Deferrals, res.Sched.MigrationsTotal())
			}
		}
	}
	return rows, schedJointCheck(rows)
}
