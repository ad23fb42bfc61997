package fleet

import (
	"fmt"
	"math"
	"time"

	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/faults"
	"tesla/internal/rng"
	"tesla/internal/safety"
	"tesla/internal/store"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// roomRun is one room's in-flight control loop: the plant, the supervised
// policy, the recorded trace, the accumulators, and (when durability is on)
// the room's WAL + snapshot store. Everything is room-local — the isolation
// contract — and every step flows through applyStep in a fixed order, so the
// accumulator and hash values are bit-identical whether a step was executed
// live or re-derived during crash recovery.
type roomRun struct {
	cfg   *Config
	spec  RoomSpec
	tbCfg testbed.Config
	tb    *testbed.Testbed
	pol   control.Policy
	sup   *safety.Supervisor
	tr    *dataset.Trace
	st    *store.Store
	q     *telemetry.Queue
	// storeStats is the store's final accounting, kept once closeStore has
	// flushed and closed it.
	storeStats store.Stats

	res  RoomResult
	hash uint64
	// last is the most recent plant sample (warm-up, replay or live) — what
	// a fleet-level scheduler reads at the step barrier to judge the room's
	// thermal headroom and cooling capacity.
	last testbed.Sample

	warmSteps int
	evalSteps int
	// startStep is the first evaluation step the live loop executes; recovery
	// moves it past the steps already re-derived from the WAL.
	startStep int

	// recWarm/recSteps are the records recovered from the WAL (empty on a
	// fresh store or with durability disabled).
	recWarm, recSteps []store.Record
	haveCkpt          bool
	ckpt              store.Checkpoint
}

// buildController constructs the room's policy and its safety supervisor from
// the room seed substreams — in the initial build and again when recovery must
// discard a half-restored controller and fall back to full replay. The seeds
// are pure functions of (fleet seed, stream), so a rebuilt controller is
// indistinguishable from a freshly booted one.
func (rr *roomRun) buildController() error {
	pol, err := rr.cfg.NewPolicy(rr.res.Room, rng.SeedFor(rr.cfg.Seed, policyStream(rr.res.Stream)))
	if err != nil {
		return fmt.Errorf("fleet: room %s: building policy: %w", rr.res.Name, err)
	}
	supCfg := safety.DefaultConfig(rr.cfg.ColdLimitC, rr.tbCfg.ACU.SetpointMinC, rr.tbCfg.ACU.SetpointMaxC)
	if rr.cfg.Safety != nil {
		supCfg = *rr.cfg.Safety
	}
	sup, err := safety.Wrap(pol, supCfg)
	if err != nil {
		return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
	}
	rr.pol, rr.sup = pol, sup
	return nil
}

// durablePolicy reports whether the room's policy participates in
// checkpointing. Without it, checkpoints are not written and recovery
// replays the whole horizon through the freshly built controller — still
// bit-identical, just more replay work.
func (rr *roomRun) durablePolicy() (control.Durable, bool) {
	d, ok := rr.pol.(control.Durable)
	return d, ok
}

func (rr *roomRun) mix(v float64) {
	bits := math.Float64bits(v)
	for s := 0; s < 64; s += 8 {
		rr.hash = (rr.hash ^ (bits >> s & 0xff)) * fnvPrime
	}
}

// applyStep folds one executed evaluation step into the room accumulators.
// The call order — and therefore every float rounding — is identical for
// live and replayed steps; that is what makes the recovery hash bit-exact.
func (rr *roomRun) applyStep(sp float64, s *testbed.Sample) {
	rr.res.Steps++
	rr.res.CEkWh += s.ACUPowerKW * rr.tbCfg.SamplePeriodS / 3600
	if s.MaxColdAisle > rr.cfg.ColdLimitC {
		rr.res.TSVFrac++
	}
	if s.TrueMaxColdC > rr.cfg.ColdLimitC {
		rr.res.TrueTSVFrac++
	}
	if s.Interrupted {
		rr.res.CIFrac++
	}
	rr.res.MeanSp += s.SetpointC
	if s.MaxColdAisle > rr.res.MaxCold {
		rr.res.MaxCold = s.MaxColdAisle
	}
	rr.mix(sp)
	rr.mix(s.MaxColdAisle)
	rr.mix(s.TrueMaxColdC)
	rr.mix(s.ACUPowerKW)
}

// checkSample cross-checks a re-simulated sample against its WAL record.
// The simulated plant is deterministic, so any divergence means the store
// belongs to a different build or configuration — counted, not fatal, since
// the re-simulated trajectory is internally consistent either way.
func (rr *roomRun) checkSample(logged, got *testbed.Sample) {
	if logged.SetpointC != got.SetpointC || logged.ACUPowerKW != got.ACUPowerKW ||
		logged.MaxColdAisle != got.MaxColdAisle || logged.TrueMaxColdC != got.TrueMaxColdC ||
		logged.TimeS != got.TimeS {
		rr.res.Recovery.PlantMismatches++
	}
}

// newRoomRun builds the room-local world: plant from the room's seed
// substreams, policy wrapped in its own safety supervisor, fault scenario
// hooked into the testbed, empty trace.
func newRoomRun(cfg *Config, idx int, q *telemetry.Queue) (*roomRun, error) {
	spec := cfg.Rooms[idx]
	stream := cfg.streamOf(idx)
	rr := &roomRun{
		cfg: cfg, spec: spec, q: q, hash: fnvOffset,
		res: RoomResult{Room: idx, Name: cfg.nameOf(idx), Stream: stream},
	}

	rr.tbCfg = cfg.Testbed
	rr.tbCfg.Seed = rng.SeedFor(cfg.Seed, testbedStream(stream))
	// Per-room heterogeneity overrides; zero values keep the fleet template.
	if spec.Servers > 0 {
		rr.tbCfg.Servers = spec.Servers
	}
	if spec.ACUCoolKW > 0 {
		rr.tbCfg.ACU.MaxCoolKW = spec.ACUCoolKW
	}
	if spec.ThermalMass > 0 && spec.ThermalMass != 1 {
		rr.tbCfg.Room.ColdCapKJPerK *= spec.ThermalMass
		rr.tbCfg.Room.HotCapKJPerK *= spec.ThermalMass
		rr.tbCfg.Room.RackCapKJPerK *= spec.ThermalMass
	}
	tb, err := testbed.New(rr.tbCfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
	}
	rr.tb = tb
	tb.UseProfile(spec.Profile)
	tb.SetSetpoint(cfg.InitSpC)

	if err := rr.buildController(); err != nil {
		return nil, err
	}
	if spec.Scenario != nil {
		eng, err := faults.NewEngine(*spec.Scenario)
		if err != nil {
			return nil, fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
		}
		tb.AddStepHook(eng)
	}

	rr.tr = dataset.NewTrace(rr.tbCfg.SamplePeriodS, len(tb.Sensors.ACU), len(tb.Sensors.DC))
	rr.warmSteps = int(cfg.WarmupS / rr.tbCfg.SamplePeriodS)
	rr.evalSteps = int(cfg.EvalS / rr.tbCfg.SamplePeriodS)
	if math.IsInf(cfg.EvalS, 1) {
		rr.evalSteps = math.MaxInt
	}
	rr.res.PlannedSteps = rr.evalSteps
	return rr, nil
}

// warmup advances the plant through the recorded warm-up window, logging any
// warm-up records the WAL does not already hold.
func (rr *roomRun) warmup() error {
	for i := 0; i < rr.warmSteps; i++ {
		s := rr.tb.Advance()
		rr.tr.Append(s)
		rr.last = s
		switch {
		case i < len(rr.recWarm):
			rr.checkSample(&rr.recWarm[i].Sample, &s)
		// Only re-log missing warm-up records while the log holds no step
		// records yet: warm-up frames appended after step frames would break
		// the log's partition invariant on the next recovery.
		case rr.st != nil && len(rr.recSteps) == 0:
			rec := store.Record{Kind: store.KindWarmup, Step: uint32(i), Sample: s}
			if err := rr.st.AppendRecord(&rec); err != nil {
				return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
			}
		}
	}
	return nil
}

// writeCheckpoint snapshots the controller, supervisor and harness
// accumulators; step is the first evaluation step a future recovery would
// still need to replay.
func (rr *roomRun) writeCheckpoint(d control.Durable, step int) error {
	polBlob, err := d.Snapshot()
	if err != nil {
		return err
	}
	supBlob, err := rr.sup.Snapshot()
	if err != nil {
		return err
	}
	harness, err := rr.encodeHarness()
	if err != nil {
		return err
	}
	return rr.st.WriteCheckpoint(store.Checkpoint{
		Step: step, Policy: polBlob, Supervisor: supBlob, Harness: harness,
	})
}

// snapInterval resolves the effective checkpoint interval.
func (rr *roomRun) snapInterval() int {
	if rr.cfg.SnapshotEvery > 0 {
		return rr.cfg.SnapshotEvery
	}
	return 64
}

// stepOnce executes evaluation step i live: decide, actuate, sample, push
// telemetry, fold accumulators, log, checkpoint on the interval.
func (rr *roomRun) stepOnce(i int) error {
	stepStart := time.Now()
	sp := rr.sup.Decide(rr.tr, rr.tr.Len()-1)
	if rr.cfg.Quantize != nil {
		sp = rr.cfg.Quantize(sp)
	}
	if rr.cfg.Actuate != nil {
		if err := rr.cfg.Actuate(rr.res.Room, sp); err != nil {
			return fmt.Errorf("fleet: room %s: actuate step %d: %w", rr.res.Name, i, err)
		}
	} else {
		rr.tb.SetSetpoint(sp)
	}
	s := rr.tb.Advance()
	rr.tr.Append(s)
	rr.last = s
	if rr.cfg.Publish != nil {
		rr.cfg.Publish(rr.res.Room, s)
	}
	if rr.spec.StallPerStep > 0 {
		time.Sleep(rr.spec.StallPerStep)
	}
	if rr.res.latencies != nil {
		rr.res.latencies = append(rr.res.latencies, time.Since(stepStart))
	}

	// Non-blocking by construction: a full queue evicts and counts, so
	// telemetry backpressure can never stall this loop.
	rr.q.Push(telemetry.RoomSample{Room: rr.res.Room, Seq: uint64(i), Level: int(rr.sup.Level()), S: s})
	rr.applyStep(sp, &s)

	if rr.st != nil {
		rec := store.Record{
			Kind: store.KindStep, Step: uint32(i), Setpoint: sp,
			Level: uint8(rr.sup.Level()), Sample: s,
		}
		if err := rr.st.AppendRecord(&rec); err != nil {
			return fmt.Errorf("fleet: room %s: %w", rr.res.Name, err)
		}
		if d, ok := rr.durablePolicy(); ok && (i+1)%rr.snapInterval() == 0 && i+1 < rr.evalSteps {
			if err := rr.writeCheckpoint(d, i+1); err != nil {
				return fmt.Errorf("fleet: room %s: checkpoint: %w", rr.res.Name, err)
			}
		}
	}
	return nil
}

// closeStore writes the final checkpoint (durable policies only) and closes
// the store; a restart of the completed horizon then recovers without
// replaying a single step.
func (rr *roomRun) closeStore() error {
	if rr.st == nil {
		return nil
	}
	if d, ok := rr.durablePolicy(); ok {
		if err := rr.writeCheckpoint(d, rr.res.Steps); err != nil {
			return fmt.Errorf("fleet: room %s: final checkpoint: %w", rr.res.Name, err)
		}
	}
	err := rr.st.Close()
	rr.storeStats = rr.st.Stats()
	rr.st = nil
	if err != nil {
		return fmt.Errorf("fleet: room %s: closing store: %w", rr.res.Name, err)
	}
	return nil
}

// presizeLatencies reserves one latency slot per remaining evaluation step,
// so the live loop never grows the slice. An open horizon records none:
// nothing ever reads them, and the slice would grow without bound.
func (rr *roomRun) presizeLatencies() {
	if rr.evalSteps < math.MaxInt {
		rr.res.latencies = make([]time.Duration, 0, rr.evalSteps-rr.startStep)
	}
}

// finish divides a copy of the accumulators and collects the supervisor's
// counters; the room's own running sums stay intact for Runner.Status.
func (rr *roomRun) finish() RoomResult {
	res := rr.res
	if res.Steps > 0 {
		res.TSVFrac /= float64(res.Steps)
		res.TrueTSVFrac /= float64(res.Steps)
		res.CIFrac /= float64(res.Steps)
		res.MeanSp /= float64(res.Steps)
	}
	res.TrajectoryHash = rr.hash

	st := rr.sup.Stats()
	res.SafetyMax = rr.sup.MaxLevel()
	res.Degraded = res.SafetyMax > safety.LevelNormal
	res.Escalations = st.Escalations
	res.Overrides = st.Overrides
	res.Quarantines = st.QuarantineEvents
	_, res.QueueDropped = rr.q.Stats()

	lat := append([]time.Duration(nil), res.latencies...)
	ls := ComputeLatencyStats(lat)
	res.LatencyP50, res.LatencyP99 = ls.P50, ls.P99
	return res
}

// runRoom executes one room's full horizon on a Runner. With durability
// enabled the room first recovers whatever a previous process persisted
// under DataDir/<room-name>, replays the WAL tail through the real decision
// path, and only then continues live — landing on the exact trajectory of a
// run that never stopped. When the HaltAfter crash hook fires the store is
// abandoned the way a killed process leaves it — unflushed buffer lost, lock
// released by descriptor death, tail possibly torn.
func runRoom(cfg *Config, idx int, q *telemetry.Queue) (RoomResult, error) {
	r, err := NewRunner(*cfg, idx, q, "")
	if err != nil {
		return RoomResult{Room: idx, Name: cfg.nameOf(idx)}, err
	}
	for !r.Done() {
		if cfg.HaltAfter > 0 && r.next == cfg.HaltAfter {
			r.Abandon()
			r.rr.res.Halted = true
			return r.rr.finish(), nil
		}
		if err := r.Step(); err != nil {
			return r.rr.res, err
		}
	}
	return r.Finish()
}
