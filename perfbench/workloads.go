package main

import "fmt"

// workload is one benchmark input: a fleet of closed-loop rooms under one
// policy on one actuation path. Every room's next step starts only after its
// previous step completes, and a pool of at most GOMAXPROCS workers steps
// the rooms, so a slower step means fewer steps, never a backlog.
type workload struct {
	name string
	why  string
	// policy is "tesla" (the full controller over the CI-scale artifacts
	// experiment.Prepare builds) or "modelfree" (training-free, no artifacts).
	policy string
	// rooms is the fleet size; 0 selects one room per worker.
	rooms int
	// steps is each room's evaluation horizon per episode, in 60-s control
	// periods. An episode builds every room, steps it to its horizon and
	// finishes it; a run repeats episodes, each with fresh rooms, until its
	// time is up.
	steps int
	// wire drives every room over its own Modbus device sim behind one
	// shared gateway; false actuates the plant in process.
	wire bool
	// wal gives every room a durable store: WAL with batch-32 fsync and
	// checkpoints at the default interval.
	wal bool
}

// The WAL rides on the TESLA workload, whose ~12-ms steps dwarf an fsync.
// On a shared virtual disk fsync latency swings tenfold from one minute to
// the next; on the sub-millisecond field-bus steps that swung throughput by
// about 30% between two sets of otherwise identical runs.
var workloads = []workload{
	{
		name:   "tesla-durable",
		why:    "Full TESLA policy in process, WAL on with batch-32 fsync: the model cascade and GP/NEI are nearly all of the step, so decision-layer changes show here and plant changes must not.",
		policy: "tesla",
		steps:  120,
		wal:    true,
	},
	{
		name:   "plant-fleet",
		why:    "64 rooms under the training-free controller in process, WAL off: testbed.Advance dominates the step, so plant and rng changes show and model or BO changes must not.",
		policy: "modelfree",
		rooms:  64,
		steps:  240,
	},
	{
		name:   "fieldbus",
		why:    "Same plant, but every set-point is a Modbus register write and every step polls the device over loopback TCP, WAL off: only gateway and modbus changes show here.",
		policy: "modelfree",
		steps:  720,
		wire:   true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// walSyncEvery is the WAL fsync batch of the durable workload.
	walSyncEvery = 32
	// snapEvery is fleet.Config's default checkpoint interval (SnapshotEvery
	// <= 0), which the durable workload keeps; the ledger uses it to tell
	// checkpointing steps from plain ones.
	snapEvery = 64
	// setupTrials is how many times a run sets up, to report set-up time as
	// a median.
	setupTrials = 3
	// minStepSamples keeps ten samples beyond the reported 99th percentile.
	minStepSamples = 1000
)
