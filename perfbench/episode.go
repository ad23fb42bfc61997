package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tesla/internal/bo"
	"tesla/internal/control"
	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/parallel"
	"tesla/internal/rng"
	"tesla/internal/store"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// plan is one run's fixed inputs.
type plan struct {
	w       workload
	seed    uint64
	rooms   int
	workers int
	steps   int
	art     *experiment.Artifacts // tesla only
	walRoot string                // parent of every episode's room stores
	epoch   time.Time
}

// mode selects how an episode drives the fleet.
type mode struct {
	traced bool
	// reference drops the field bus and the WAL but keeps the workload's
	// set-point quantisation: the in-process run a field-bus run must equal.
	reference bool
}

// episodeResult is everything one episode measured and counted.
type episodeResult struct {
	results []fleet.RoomResult
	lat     []time.Duration // every room-step, in completion order per worker
	wall    time.Duration   // stepping phase: first step started → last step ended
	mallocs uint64
	// peakHeap is the peak HeapInuse from the episode's set-up to its
	// checks (untraced measured episodes only).
	peakHeap uint64

	setupRunners, setupFieldbus time.Duration

	spans   []span
	c       counters
	checks  []string // failed correctness checks
	planned int      // room-steps planned
}

// counters are read-only program counters summed over rooms (and, by the
// caller, over episodes).
type counters struct {
	Fallbacks       uint64 `json:"fallbacks"`
	Overrides       uint64 `json:"overrides"`
	Escalations     uint64 `json:"escalations"`
	Optimizes       uint64 `json:"optimizes"`
	Evals           uint64 `json:"evals"`
	Feasible        uint64 `json:"feasible"`
	ReplayMisses    uint64 `json:"replay_misses"`
	ReplayMismatch  uint64 `json:"replay_mismatches"`
	Polls           uint64 `json:"polls"`
	PollFailed      uint64 `json:"poll_failed"`
	PollSamples     uint64 `json:"poll_samples"`
	SeqGaps         uint64 `json:"seq_gaps"`
	GatewayFailed   uint64 `json:"gateway_failed"`
	Reconnects      uint64 `json:"gateway_reconnects"`
	WireReads       uint64 `json:"gateway_wire_reads"`
	QueuePushed     uint64 `json:"queue_pushed"`
	QueueDropped    uint64 `json:"queue_dropped"`
	StoreRecords    uint64 `json:"store_records"`
	StoreBytes      uint64 `json:"store_bytes"`
	StoreSnapshots  uint64 `json:"store_snapshots"`
	RoomSteps       uint64 `json:"room_steps"`
	SteppingWallNs  int64  `json:"stepping_wall_ns"`
	FailedRoomSteps uint64 `json:"failed_room_steps"`
}

func (c *counters) add(o counters) {
	c.Fallbacks += o.Fallbacks
	c.Overrides += o.Overrides
	c.Escalations += o.Escalations
	c.Optimizes += o.Optimizes
	c.Evals += o.Evals
	c.Feasible += o.Feasible
	c.ReplayMisses += o.ReplayMisses
	c.ReplayMismatch += o.ReplayMismatch
	c.Polls += o.Polls
	c.PollFailed += o.PollFailed
	c.PollSamples += o.PollSamples
	c.SeqGaps += o.SeqGaps
	c.GatewayFailed += o.GatewayFailed
	c.Reconnects += o.Reconnects
	c.WireReads += o.WireReads
	c.QueuePushed += o.QueuePushed
	c.QueueDropped += o.QueueDropped
	c.StoreRecords += o.StoreRecords
	c.StoreBytes += o.StoreBytes
	c.StoreSnapshots += o.StoreSnapshots
	c.RoomSteps += o.RoomSteps
	c.SteppingWallNs += o.SteppingWallNs
	c.FailedRoomSteps += o.FailedRoomSteps
}

// roomBus is one room's field path, composed from the same public pieces as
// the control plane's shards: the plant's register bridge, a Modbus/TCP
// device sim serving it, a device on the shared gateway dialing that sim
// (one loopback connection per room) and a single-device poller.
type roomBus struct {
	bridge *modbus.ACUBridge
	srv    *modbus.Server
	dev    *gateway.Device
	poller *gateway.Poller
}

func (b *roomBus) actuate(spC float64) error {
	return b.dev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(spC))
}

func (b *roomBus) publish(s testbed.Sample) {
	b.bridge.Refresh(s)
	b.poller.PollOnce(s.TimeS) // failures surface as sequence gaps and in Counts
	b.poller.DrainOnce()
}

// fleetConfig is the workload's room engine configuration: the default
// fleet of diurnal rooms with the workload's horizon.
func (pl *plan) fleetConfig(seed uint64, newPolicy fleet.PolicyFactory) fleet.Config {
	cfg := fleet.DefaultConfig(pl.rooms, seed, newPolicy)
	cfg.Workers = pl.workers
	cfg.EvalS = float64(pl.steps) * cfg.Testbed.SamplePeriodS
	if pl.w.wire {
		cfg.Quantize = modbus.QuantizeTempC
	}
	return cfg
}

// episodeSeed is the fleet seed of a phase's k-th episode. Every episode of
// a run sees fresh rooms, so one run covers many load traces; the same k of
// two phases (untraced, traced, in-process reference) replays the same rooms.
func (pl *plan) episodeSeed(k int) uint64 { return rng.SeedFor(pl.seed, uint64(k)) }

// episode builds every room of the fleet seeded seed, steps each one
// through its horizon on the worker pool, finishes it and checks what it
// produced. index numbers the episode within the run.
func (pl *plan) episode(index int, seed uint64, m mode) (*episodeResult, error) {
	n := pl.rooms
	er := &episodeResult{planned: n * pl.steps}
	probes := make([]*probe, n)
	replays := make([]replayStats, n)
	teslas := make([]*control.TESLA, n)
	for i := range probes {
		probes[i] = &probe{epoch: pl.epoch, room: int32(i), episode: int32(index), cur: noParent}
		if m.traced {
			probes[i].spans = make([]span, 0, pl.steps*8)
		}
	}
	setup := &probe{epoch: pl.epoch, room: noRoom, episode: int32(index)}
	setupSpan := func(kind uint8, room int32, start int64) {
		setup.spans = append(setup.spans, span{name: kind, room: room, step: -1,
			episode: int32(index), parent: noParent, start: start, end: setup.now()})
	}

	newPolicy := func(room int, seed uint64) (control.Policy, error) {
		var pol control.Policy
		var err error
		switch pl.w.policy {
		case "tesla":
			teslas[room], err = pl.art.NewTESLAPolicy(seed)
			pol = teslas[room]
		default:
			tb := testbed.DefaultConfig()
			pol, err = experiment.NewModelFreePolicy(tb.ACU.SetpointMinC, tb.ACU.SetpointMaxC)
		}
		if err != nil || !m.traced {
			return pol, err
		}
		var boCfg bo.Config
		if pl.art != nil {
			boCfg = control.DefaultTESLAConfig(pl.art.TBConf.ACU.SetpointMinC, pl.art.TBConf.ACU.SetpointMaxC).BO
			return newTracedPolicy(pol, probes[room], teslas[room], pl.art.Model, boCfg, seed, &replays[room])
		}
		return newTracedPolicy(pol, probes[room], nil, nil, boCfg, seed, &replays[room])
	}
	cfg := pl.fleetConfig(seed, newPolicy)

	bus, wal := pl.w.wire && !m.reference, pl.w.wal && !m.reference
	dir := filepath.Join(pl.walRoot, fmt.Sprintf("episode-%d", index))
	if wal {
		cfg.DataDir = dir
		cfg.SyncEvery = walSyncEvery
	}
	buses := make([]*roomBus, n)
	if bus {
		cfg.Actuate = func(room int, spC float64) error { return buses[room].actuate(spC) }
		cfg.Publish = func(room int, s testbed.Sample) { buses[room].publish(s) }
		if m.traced {
			cfg.Actuate = func(room int, spC float64) error {
				p := probes[room]
				start := p.now()
				err := buses[room].actuate(spC)
				p.child(spanWrite, start, p.now(), 0)
				return err
			}
			cfg.Publish = func(room int, s testbed.Sample) {
				p := probes[room]
				start := p.now()
				buses[room].publish(s)
				p.child(spanPoll, start, p.now(), 0)
			}
		}
	}

	queues := make([]*telemetry.Queue, n)
	for i := range queues {
		queues[i] = telemetry.NewQueue(512) // fleet.Config's default QueueCap
	}

	t0 := time.Now()
	start := setup.now()
	runners, err := parallel.MapErr(pl.workers, n, func(i int) (*fleet.Runner, error) {
		return fleet.NewRunner(cfg, i, queues[i], "perfbench")
	})
	if err != nil {
		for _, r := range runners {
			if r != nil {
				r.Abandon()
			}
		}
		return nil, err
	}
	// Finished runners ignore Abandon; on an early return it releases the
	// stores of the others.
	defer func() {
		for _, r := range runners {
			r.Abandon()
		}
	}()
	er.setupRunners = time.Since(t0)
	setupSpan(spanRunners, noRoom, start)

	var gw *gateway.Gateway
	if bus {
		t1 := time.Now()
		start := setup.now()
		gw = gateway.New(gateway.Config{})
		defer func() {
			gw.Close()
			for _, b := range buses {
				if b != nil {
					b.srv.Close()
				}
			}
		}()
		for i, r := range runners {
			if buses[i], err = newRoomBus(gw, r, cfg); err != nil {
				return nil, err
			}
		}
		er.setupFieldbus = time.Since(t1)
		setupSpan(spanFieldbus, noRoom, start)
	}
	if m.traced {
		for i, r := range runners {
			r.Plant().AddStepHook(&advanceHook{p: probes[i]})
		}
	}

	// One ingestor drains every room's telemetry queue, as in fleet.Run.
	ing := telemetry.NewIngestor(queues, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, cfg.Batch)
	stop := make(chan struct{})
	var g parallel.Group
	g.Go(func() { ing.Run(stop, 200*time.Microsecond) })

	er.lat, er.wall, er.mallocs, err = stepRooms(runners, probes, pl.workers, pl.steps, m.traced)
	close(stop)
	g.Wait()
	if err != nil {
		return nil, err
	}

	er.results = make([]fleet.RoomResult, n)
	for i, r := range runners {
		start := setup.now()
		if er.results[i], err = r.Finish(); err != nil {
			return nil, err
		}
		setupSpan(spanFinish, int32(i), start)
	}

	c := &er.c
	c.RoomSteps = uint64(len(er.lat))
	c.SteppingWallNs = int64(er.wall)
	for i, res := range er.results {
		if res.Steps != pl.steps || res.PlannedSteps != pl.steps {
			er.fail("room %s completed %d of %d planned steps", res.Name, res.Steps, pl.steps)
		}
		c.Overrides += res.Overrides
		c.Escalations += res.Escalations
		pushed, dropped := queues[i].Stats()
		c.QueuePushed += pushed
		c.QueueDropped += dropped
		if t := teslas[i]; t != nil {
			d := t.Diagnostics()
			c.Fallbacks += d.HistoryFallbacks + d.OptimizerFallbacks
		}
		rs := replays[i]
		c.Optimizes += rs.optimizes
		c.Evals += rs.evals
		c.Feasible += rs.feasible
		c.ReplayMisses += rs.misses
		c.ReplayMismatch += rs.mismatches
	}
	if bus {
		pl.closeBuses(er, buses, gw)
	}
	if wal {
		// The stores stay on disk until the run ends: deleting files while
		// later episodes fsync would add the file system's discard work to
		// their step times.
		for _, res := range er.results {
			pl.checkStore(er, filepath.Join(dir, res.Name))
		}
	}
	c.FailedRoomSteps = c.Fallbacks + c.Overrides + c.PollFailed + c.GatewayFailed
	if c.ReplayMisses > 0 || c.ReplayMismatch > 0 {
		er.fail("bo replay: %d misses, %d decisions not reproduced", c.ReplayMisses, c.ReplayMismatch)
	}

	for _, p := range probes {
		er.spans = appendSpans(er.spans, p.spans)
	}
	er.spans = appendSpans(er.spans, setup.spans)
	return er, nil
}

// stepRooms steps every room through steps control periods. Room i belongs
// to worker i mod workers, which steps its rooms in turn, so each room's next
// step starts only after its previous one completed. It returns every step's
// latency, the wall time of the whole phase and the heap allocations made.
func stepRooms(runners []*fleet.Runner, probes []*probe, workers, steps int, traced bool) ([]time.Duration, time.Duration, uint64, error) {
	n := len(runners)
	workers = parallel.Workers(workers)
	if workers > n {
		workers = n
	}
	lat := make([][]time.Duration, workers)
	errs := make([]error, workers)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	parallel.For(workers, workers, func(w int) {
		lat[w] = make([]time.Duration, 0, (n/workers+1)*steps)
		for step := 0; step < steps; step++ {
			for room := w; room < n; room += workers {
				r, p := runners[room], probes[room]
				var open int32
				if traced {
					open = p.open(r.StepIndex())
				}
				t := time.Now()
				err := r.Step()
				d := time.Since(t)
				if traced {
					p.close(open)
				}
				if err != nil {
					errs[w] = err
					return
				}
				lat[w] = append(lat[w], d)
			}
		}
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return nil, 0, 0, err
		}
	}
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	return all, wall, ms1.Mallocs - ms0.Mallocs, nil
}

func (er *episodeResult) fail(format string, args ...any) {
	er.checks = append(er.checks, fmt.Sprintf(format, args...))
}

func newRoomBus(gw *gateway.Gateway, r *fleet.Runner, cfg fleet.Config) (*roomBus, error) {
	b := &roomBus{bridge: modbus.NewACUBridge(r.Plant())}
	b.srv = modbus.NewServer(b.bridge.Bank)
	addr, err := b.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("field bus %s: %w", r.Name(), err)
	}
	if b.dev, err = gw.Add(r.Name(), addr); err != nil {
		b.srv.Close()
		return nil, fmt.Errorf("field bus %s: %w", r.Name(), err)
	}
	b.poller = gateway.NewPollerOver([]*gateway.Device{b.dev}, gateway.PollerConfig{
		ColdLimitC: cfg.ColdLimitC,
		PeriodS:    cfg.Testbed.SamplePeriodS,
		Batch:      cfg.Batch,
	})
	return b, nil
}

// closeBuses drains every poller and checks the poll ledger: each step
// yields exactly one polled sample or one sequence gap, and there must be
// no gaps and no failed writes.
func (pl *plan) closeBuses(er *episodeResult, buses []*roomBus, gw *gateway.Gateway) {
	c := &er.c
	for i, b := range buses {
		for b.poller.DrainOnce() > 0 {
		}
		roll := b.poller.Rollup()
		polls, failures := b.poller.Counts()
		c.Polls += polls
		c.PollFailed += failures
		c.PollSamples += roll.Samples
		c.SeqGaps += roll.Gaps
		if roll.Samples+roll.Gaps != uint64(pl.steps) || roll.Gaps != 0 || roll.Dropped != 0 {
			er.fail("room %d poll ledger: %d samples + %d gaps (%d dropped) for %d steps",
				i, roll.Samples, roll.Gaps, roll.Dropped, pl.steps)
		}
	}
	gs := gw.Stats()
	c.GatewayFailed = gs.Failed
	c.Reconnects = gs.Reconnects
	c.WireReads = gs.WireReads
	if gs.Failed != 0 || gs.Writes != uint64(er.planned) {
		er.fail("gateway: %d failed requests, %d writes for %d steps", gs.Failed, gs.Writes, er.planned)
	}
}

// checkStore reopens a finished room's store: it must recover every warm-up
// and evaluation record and a checkpoint at the final step.
func (pl *plan) checkStore(er *episodeResult, dir string) {
	c := &er.c
	warm := int(pl.fleetConfig(0, nil).WarmupS / testbed.DefaultConfig().SamplePeriodS)
	st, rec, err := store.Open(dir, store.Options{LockHolder: "perfbench-check"})
	if err != nil {
		er.fail("store %s: %v", dir, err)
		return
	}
	defer st.Close()
	c.StoreRecords += uint64(len(rec.Records))
	if len(rec.Records) != warm+pl.steps || rec.WAL.TruncatedBytes != 0 {
		er.fail("store %s recovered %d records, want %d", dir, len(rec.Records), warm+pl.steps)
	}
	if !rec.HaveCheckpoint || rec.Checkpoint.Step != pl.steps {
		er.fail("store %s: no checkpoint at final step %d", dir, pl.steps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		er.fail("store %s: %v", dir, err)
		return
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".seg":
			if info, err := e.Info(); err == nil {
				c.StoreBytes += uint64(info.Size())
			}
		case ".snap":
			c.StoreSnapshots++
		}
	}
}
