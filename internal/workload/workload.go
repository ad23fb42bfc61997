// Package workload generates the server load used in the TESLA evaluation
// (paper §4–5.1): a Gaetano-style CPU load controller that holds a target
// utilization on a server for a duration, a mini job orchestrator that
// schedules those controllers across the cluster the way the paper uses
// Kubernetes Jobs, and diurnal load profiles shaped after production cluster
// traces (rise-and-fall over the 12-hour testing period) for the idle,
// medium (20 % average CPU) and high (40 % average CPU) settings.
package workload

import (
	"fmt"
	"math"

	"tesla/internal/cluster"
	"tesla/internal/rng"
)

// Setting names one of the three evaluation load settings.
type Setting int

// The three server-load settings of §5.1.
const (
	Idle Setting = iota
	Medium
	High
)

// String implements fmt.Stringer.
func (s Setting) String() string {
	switch s {
	case Idle:
		return "idle"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("setting(%d)", int(s))
	}
}

// ParseSetting resolves a load setting by name (idle, medium or high).
func ParseSetting(name string) (Setting, error) {
	for _, s := range []Setting{Idle, Medium, High} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown load %q (idle|medium|high)", name)
}

// MeanUtil returns the 12-hour average CPU utilization the setting targets.
func (s Setting) MeanUtil() float64 {
	switch s {
	case Medium:
		return 0.20
	case High:
		return 0.40
	default:
		return 0
	}
}

// Profile produces a target fleet utilization as a function of time. All
// profiles are deterministic given their seed so experiments are repeatable.
type Profile interface {
	// UtilAt returns the fleet-average target utilization at t seconds.
	UtilAt(tSeconds float64) float64
	// Name labels the profile for telemetry and reports.
	Name() string
}

// Diurnal is the paper's evaluation profile: the load rises and falls once
// over the period (emulating a day compressed into 12 hours), with
// low-frequency wander and short bursts layered on top, normalized so the
// period average matches the setting.
type Diurnal struct {
	Setting Setting
	// PeriodS is the full rise-and-fall duration (43200 s = 12 h).
	PeriodS float64
	// burst/wander state, deterministic per seed
	seed uint64
}

// NewDiurnal builds a diurnal profile for a setting. Seed varies the burst
// pattern between runs while keeping each run reproducible.
func NewDiurnal(s Setting, periodS float64, seed uint64) *Diurnal {
	return &Diurnal{Setting: s, PeriodS: periodS, seed: seed}
}

// Name implements Profile.
func (d *Diurnal) Name() string { return "diurnal-" + d.Setting.String() }

// UtilAt implements Profile. The base shape is the raised cosine
// (1-cos(2πt/T))/2 whose period average is exactly 1/2, so scaling by twice
// the target mean hits the setting's average utilization.
func (d *Diurnal) UtilAt(t float64) float64 {
	mean := d.Setting.MeanUtil()
	if mean == 0 {
		return 0
	}
	base := (1 - math.Cos(2*math.Pi*t/d.PeriodS)) / 2
	// Low-frequency wander (±12 %) and bursty spikes every ~20 min; the
	// hash-based phase keeps everything deterministic in t.
	wander := 0.12 * math.Sin(2*math.Pi*t/3100+float64(d.seed%97))
	burstPhase := math.Mod(t+float64(d.seed%1201), 1200)
	burst := 0.0
	if burstPhase < 180 {
		burst = 0.15 * math.Sin(math.Pi*burstPhase/180)
	}
	u := 2 * mean * (base*(1+wander) + burst*base)
	if u < 0 {
		u = 0
	}
	if u > 0.95 {
		u = 0.95
	}
	return u
}

// Constant is a flat profile, used for the model-training sweep and the
// figure micro-experiments.
type Constant struct {
	Util  float64
	Label string
}

// UtilAt implements Profile.
func (c Constant) UtilAt(float64) float64 { return c.Util }

// Name implements Profile.
func (c Constant) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("constant-%.0f%%", c.Util*100)
}

// Steps plays back a piecewise-constant utilization schedule; the training
// sweep uses it to randomize the load every 12 hours (paper §5.1).
type Steps struct {
	// BoundariesS[i] is the start time of segment i; Utils[i] its level.
	BoundariesS []float64
	Utils       []float64
	Label       string
}

// UtilAt implements Profile.
func (s Steps) UtilAt(t float64) float64 {
	u := 0.0
	for i, b := range s.BoundariesS {
		if t >= b {
			u = s.Utils[i]
		} else {
			break
		}
	}
	return u
}

// Name implements Profile.
func (s Steps) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "steps"
}

// RandomDiurnalSchedule builds the training-data load schedule of §5.1: for
// every 12-hour block a load setting is drawn at random, and within the
// block the corresponding diurnal shape plays.
type RandomDiurnalSchedule struct {
	BlockS   float64
	profiles []Profile
}

// NewRandomDiurnalSchedule draws one setting per 12-hour block for the given
// total duration. The draw is stratified: each consecutive group of three
// blocks contains idle, medium and high in random order, so even short
// schedules expose the full load range (a purely independent draw can leave
// a two-day trace without any high-load block, starving the models of
// dynamic-load training signal).
func NewRandomDiurnalSchedule(totalS, blockS float64, r *rng.Rand) *RandomDiurnalSchedule {
	s := &RandomDiurnalSchedule{BlockS: blockS}
	n := int(math.Ceil(totalS / blockS))
	var group []Setting
	for i := 0; i < n; i++ {
		if len(group) == 0 {
			group = []Setting{Idle, Medium, High}
			for j := len(group) - 1; j > 0; j-- {
				k := r.Intn(j + 1)
				group[j], group[k] = group[k], group[j]
			}
		}
		set := group[0]
		group = group[1:]
		s.profiles = append(s.profiles, NewDiurnal(set, blockS, r.Uint64()))
	}
	return s
}

// UtilAt implements Profile.
func (s *RandomDiurnalSchedule) UtilAt(t float64) float64 {
	i := int(t / s.BlockS)
	if i < 0 {
		i = 0
	}
	if i >= len(s.profiles) {
		i = len(s.profiles) - 1
	}
	return s.profiles[i].UtilAt(math.Mod(t, s.BlockS))
}

// Name implements Profile.
func (s *RandomDiurnalSchedule) Name() string { return "random-diurnal" }

// Blocks returns the per-block profile names (for trace provenance).
func (s *RandomDiurnalSchedule) Blocks() []string {
	out := make([]string, len(s.profiles))
	for i, p := range s.profiles {
		out[i] = p.Name()
	}
	return out
}

// Driver applies a Profile to a cluster with per-server skew, emulating the
// orchestrator spreading load-generator jobs unevenly across nodes.
type Driver struct {
	Profile Profile
	skew    []float64 // multiplicative per-server factor, mean 1
}

// NewDriver builds a driver with deterministic per-server skew drawn from r.
func NewDriver(p Profile, c *cluster.Cluster, r *rng.Rand) *Driver {
	d := &Driver{Profile: p}
	d.skew = make([]float64, len(c.Servers))
	var sum float64
	for i := range d.skew {
		d.skew[i] = 0.7 + 0.6*r.Float64()
		sum += d.skew[i]
	}
	// Normalize so fleet-average utilization matches the profile exactly.
	mean := sum / float64(len(d.skew))
	for i := range d.skew {
		d.skew[i] /= mean
	}
	return d
}

// Apply sets each server's target utilization for time t.
func (d *Driver) Apply(c *cluster.Cluster, t float64) {
	u := d.Profile.UtilAt(t)
	for i, s := range c.Servers {
		target := u * d.skew[i]
		if target > 0.98 {
			target = 0.98
		}
		s.SetTargetUtil(target)
	}
}
