package main

import (
	"fmt"
	"io"
	"time"

	"tesla/internal/control"
	"tesla/internal/fleet"
)

// fleetBenchConfig sizes the rooms × workers sweep.
type fleetBenchConfig struct {
	Rooms        []int  `json:"rooms"`
	Workers      []int  `json:"workers"`
	StepsPerRoom int    `json:"steps_per_room"`
	Seed         uint64 `json:"seed"`
}

var defaultFleetBench = fleetBenchConfig{Rooms: []int{1, 4, 16}, Workers: []int{1, 2, 4}, StepsPerRoom: 60, Seed: 13}

// fleetBenchRow is one cell of the rooms × workers sweep.
type fleetBenchRow struct {
	Rooms   int `json:"rooms"`
	Workers int `json:"workers"`
	Steps   int `json:"steps"`

	StepsPerSec float64 `json:"steps_per_sec"`
	WallSeconds float64 `json:"wall_seconds"`
	latencyCols

	SamplesIngested uint64 `json:"samples_ingested"`
	SamplesDropped  uint64 `json:"samples_dropped"`
}

// runFleetBench sweeps the fleet orchestrator over room × worker counts and
// prints a throughput/latency table. The rooms run a seeded fixed policy so
// the sweep measures orchestration, plant physics and the telemetry pipeline
// — not controller inference; BenchmarkFleetStep and the experiment fleet
// scenario cover the TESLA-policy path.
func runFleetBench(w io.Writer, c fleetBenchConfig) ([]fleetBenchRow, error) {
	var rows []fleetBenchRow
	fmt.Fprintf(w, "fleet orchestrator sweep: %d steps/room, seed %d, seeded fixed policy\n", c.StepsPerRoom, c.Seed)
	fmt.Fprintf(w, "  %5s %7s %7s %10s %9s %9s %9s %8s\n",
		"rooms", "workers", "steps", "steps/s", "p50", "p99", "max", "dropped")
	for _, rooms := range c.Rooms {
		for _, workers := range c.Workers {
			cfg := fleet.DefaultConfig(rooms, c.Seed, benchPolicy)
			cfg.WarmupS = 1800
			cfg.EvalS = float64(c.StepsPerRoom) * cfg.Testbed.SamplePeriodS
			cfg.Workers = workers
			res, err := fleet.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("rooms=%d workers=%d: %w", rooms, workers, err)
			}
			rows = append(rows, fleetBenchRow{
				Rooms:           rooms,
				Workers:         workers,
				Steps:           res.TotalSteps,
				StepsPerSec:     res.StepsPerSec,
				WallSeconds:     res.WallSeconds,
				latencyCols:     latencyOf(res.Latency),
				SamplesIngested: res.Rollup.Samples,
				SamplesDropped:  res.Rollup.Dropped,
			})
			fmt.Fprintf(w, "  %5d %7d %7d %10.0f %9s %9s %9s %8d\n",
				rooms, workers, res.TotalSteps, res.StepsPerSec,
				res.Latency.P50.Round(time.Microsecond), res.Latency.P99.Round(time.Microsecond),
				res.Latency.Max.Round(time.Microsecond), res.Rollup.Dropped)
		}
	}
	return rows, nil
}

// benchPolicy is the sweep's per-room policy: a fixed set-point perturbed by
// the room's policy seed, so rooms stay heterogeneous at near-zero decision
// cost.
func benchPolicy(room int, seed uint64) (control.Policy, error) {
	return control.Fixed{SetpointC: 22.8 + float64(seed%64)/128}, nil
}
