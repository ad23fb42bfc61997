// Command teslad is the TESLA deployment daemon: it assembles the full §4
// stack — simulated testbed, Modbus/TCP ACU bridge, Telegraf-style
// collector feeding an InfluxDB-style store over HTTP — and runs the TESLA
// control loop against it, exposing an operator endpoint with live status
// and Prometheus-style metrics.
//
// Usage:
//
//	teslad -listen 127.0.0.1:8844 -load medium -minutes 120 [-speedup 0]
//	teslad -listen 127.0.0.1:8844 -rooms 8 -minutes 120 [-seed 11]
//	teslad -rooms 6 -scheduler full -policy modelfree -minutes 60
//	teslad -datadir /var/lib/teslad -checkpoint 15 [-walsync 0] ...
//	teslad -role coordinator -rooms 8 -seed 11 -listen 127.0.0.1:9000
//	teslad -role shard -id shard-a -datadir /var/lib/teslad/a \
//	       -coordinator http://127.0.0.1:9000 -listen 127.0.0.1:9001
//	teslad -inputs modbus,http=127.0.0.1:8086,subscribe=host:9200 ...
//
// With -speedup 0 (default) the simulation runs as fast as the CPU allows;
// a positive value sleeps to pace the loop at speedup× real time.
//
// -datadir enables the durable state store: every control step (and the
// warm-up) is appended to a per-room write-ahead log, and the controller's
// learned state is checkpointed every -checkpoint steps plus once at
// graceful shutdown. On restart the daemon recovers the telemetry view, the
// checkpointed controller and the operator counters, and resumes counting
// where the durable record ends instead of re-maturing from scratch.
// -walsync batches WAL fsyncs (0 = every record, n = every n records,
// negative = never; the shutdown flush always syncs). -policy selects the
// room controller: tesla (default) and mpc train models at CI scale before
// the loop starts; fixed (constant set-point) and modelfree (training-free
// intelligent-P) boot cold.
//
// -rooms N (N > 1) switches to fleet mode: N concurrent room control loops —
// heterogeneous diurnal loads, per-room -policy controllers and safety
// supervisors seeded from per-room substreams of -seed — feed a bounded
// per-room telemetry queue pipeline whose rollup backs the fleet endpoints.
//
// -scheduler none|defer|full runs the lockstep scheduled fleet instead: N
// heterogeneous rooms (the scheduling study's standard/weak/large archetypes
// tiled out) advance in lockstep while a global batch scheduler places,
// defers and migrates two heavy deferrable jobs per room at every step
// barrier. The run is deterministic in (-rooms, -seed, -policy, -scheduler);
// /fleet serves the per-room snapshots next to the scheduler counters, and
// /metrics adds tesla_sched_placements_total, tesla_sched_deferrals_total,
// tesla_sched_migrations_total{reason} and per-room queue-depth gauges.
// Requires a finite -minutes horizon; -datadir is not supported here.
//
// -role coordinator|shard switches to the sharded control plane: one
// coordinator process places rooms on shard workers via consistent hashing,
// tracks their heartbeat leases and re-places rooms when shards die; shard
// processes host room control loops and keep stepping them whether or not
// the coordinator stays reachable. Coordinator and shards must be launched
// with identical -rooms, -seed, -minutes and -policy values (the shared
// fleet contract). Shards sharing one -datadir root recover each other's
// rooms on failover; distinct roots rely on live migration (/migrate on the
// coordinator). The coordinator serves /fleet, /shards, /migrate, /healthz
// (503 while any room is unplaced) and /metrics (failover, migration and
// fencing counters); each shard serves its internal API plus /healthz and
// /metrics.
//
// -inputs attaches the production-volume telemetry ingest pipeline
// (internal/ingest): comma-separated input specs — modbus[=measurement]
// polls the daemon's ACU gateway, http[=addr] accepts batched
// line-protocol writes, subscribe=host:port[;...] consumes sequenced
// delta streams — feeding a retention-tiered store with exact loss
// accounting. /status gains an "ingest" block and /metrics gains
// tesla_ingest_* + tesla_tsdb_* series; on -role shard the ledgers ride
// every heartbeat into the coordinator's /fleet rollup.
//
// SIGINT/SIGTERM stop the control loop at the next step boundary, drain the
// operator HTTP server gracefully and print the final summary.
//
// Endpoints (single-room mode):
//
//	GET /status   — JSON snapshot of the control loop
//	GET /metrics  — Prometheus text exposition
//	GET /healthz  — 503 until the first control step publishes, then 200
//
// Endpoints (fleet mode):
//
//	GET /fleet      — rollup + per-room snapshots + ingested aggregates
//	GET /rooms/{id} — one room's detail
//	GET /metrics    — aggregate exposition incl. drop/gap/event-loss counters
//	GET /healthz    — 503 until every room has published, then 200
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"tesla/internal/control"
	"tesla/internal/dataset"
	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/modbus"
	"tesla/internal/safety"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8844", "operator HTTP endpoint")
	loadName := flag.String("load", "medium", "load setting: idle|medium|high (single-room mode)")
	minutes := flag.Int("minutes", 120, "control-loop duration in minutes (0 = forever)")
	speedup := flag.Float64("speedup", 0, "0 = run flat out; N = pace at N× real time")
	rooms := flag.Int("rooms", 1, "machine rooms to run; > 1 switches to fleet mode")
	seed := flag.Uint64("seed", 11, "master seed (fleet substreams and the single-room policy)")
	policyName := flag.String("policy", "tesla", "room controller: tesla|fixed|mpc|modelfree")
	schedMode := flag.String("scheduler", "", "fleet batch scheduler: none|defer|full (empty disables; runs the lockstep scheduled fleet)")
	datadir := flag.String("datadir", "", "directory for the durable WAL + snapshot store (empty disables durability)")
	checkpoint := flag.Int("checkpoint", 15, "checkpoint controller state every N control steps")
	walsync := flag.Int("walsync", 0, "WAL fsync batch: 0 = every record, n = every n records, negative = never")
	role := flag.String("role", "", "control-plane role: coordinator|shard (empty = standalone daemon)")
	shardID := flag.String("id", "", "shard identity on the placement ring (-role shard)")
	coordURL := flag.String("coordinator", "", "coordinator base URL the shard registers with (-role shard; empty = autonomous)")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this shard back on (default: the bound -listen address)")
	stepDelay := flag.Duration("stepdelay", 0, "pace each hosted room's loop by this much per control step (-role shard)")
	inputs := flag.String("inputs", "", "telemetry ingest inputs, comma-separated specs: modbus[=measurement], http[=addr], subscribe=host:port[;host:port...] (empty disables the ingest pipeline)")
	gatewayOn := flag.Bool("gateway", false, "run a Modbus field bus under every hosted room (-role shard): in-process ACU device sims actuated and polled through a per-shard gateway")
	gatherEvery := flag.Duration("gatherevery", time.Second, "ingest pipeline pull-input gather cadence")
	compactEvery := flag.Duration("compactevery", 5*time.Second, "ingest pipeline TSDB compaction cadence")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dur := durOptions{dir: *datadir, every: *checkpoint, sync: *walsync}
	var err error
	if *role != "" {
		cp := cpOptions{role: *role, id: *shardID, coordinator: *coordURL, advertise: *advertise, stepDelay: *stepDelay, inputs: *inputs,
			gateway: *gatewayOn, ingOpts: ingestOptions{gatherEvery: *gatherEvery, compactEvery: *compactEvery, dynamic: true}}
		err = runControlPlane(ctx, *listen, *rooms, *minutes, *seed, *policyName, dur, cp)
	} else if *schedMode != "" {
		err = runSchedFleet(ctx, *listen, *rooms, *minutes, *speedup, *seed, *policyName, *schedMode, dur)
	} else if *rooms > 1 {
		_, err = runFleet(ctx, *listen, *rooms, *minutes, *speedup, *seed, *policyName, dur)
	} else {
		err = run(ctx, *listen, *loadName, *policyName, *minutes, *speedup, *seed, dur, *inputs,
			ingestOptions{gatherEvery: *gatherEvery, compactEvery: *compactEvery})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teslad:", err)
		os.Exit(1)
	}
}

// sleepCtx pauses for d unless the context is cancelled first; it reports
// whether the full pause elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func run(ctx context.Context, listen, loadName, policyName string, minutes int, speedup float64, seed uint64, dur durOptions, inputs string, ingOpts ingestOptions) error {
	var load workload.Setting
	switch loadName {
	case "idle":
		load = workload.Idle
	case "medium":
		load = workload.Medium
	case "high":
		load = workload.High
	default:
		return fmt.Errorf("unknown load %q", loadName)
	}

	// The same factory backs every mode: -policy tesla and mpc train once at
	// CI scale, fixed and modelfree boot cold.
	factory, err := policyFactory(policyName)
	if err != nil {
		return err
	}
	controller, err := factory(0, seed)
	if err != nil {
		return err
	}

	// Plant + buses.
	tbCfg := testbed.DefaultConfig()
	tb, err := testbed.New(tbCfg)
	if err != nil {
		return err
	}
	tb.UseProfile(workload.NewDiurnal(load, 43200, 7))
	bridge := modbus.NewACUBridge(tb)
	mbSrv := modbus.NewServer(bridge.Bank)
	mbAddr, err := mbSrv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer mbSrv.Close()

	// With -inputs the store runs with retention tiers so production-volume
	// ingest stays memory-bounded; without it the plain unbounded store keeps
	// the historical single-room behaviour bit-for-bit.
	db := telemetry.NewDB()
	if inputs != "" {
		db = telemetry.NewDBWithRetention(telemetry.RetentionConfig{})
	}
	tsSrv := telemetry.NewServer(db)
	tsAddr, err := tsSrv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tsSrv.Close()
	collector := telemetry.NewCollector(tb)
	tsClient := telemetry.NewClient(tsAddr)

	// All actuation flows through the gateway — the same component that
	// fronts the fleet at scale — so its health counters on /status and
	// /metrics reflect the real command path, not a side channel.
	gw := gateway.New(gateway.Config{Timeout: 2 * time.Second})
	defer gw.Close()
	acuDev, err := gw.Add("acu-0", mbAddr)
	if err != nil {
		return err
	}

	// Optional production-volume ingest pipeline: plugin inputs (modbus
	// poller over the same gateway, HTTP line-protocol writes, streaming
	// subscriptions) feed the retention-tiered store with exact accounting.
	// The compaction clock is the simulation sample clock, not wall time:
	// every sample this daemon produces is stamped in sim seconds, and
	// retention cutoffs must live in the same domain.
	var simClock atomic.Uint64
	var ing *ingest.Service
	if inputs != "" {
		simNow := func() float64 { return math.Float64frombits(simClock.Load()) }
		ing, err = startIngest(db, inputs, gw, 22, tbCfg.SamplePeriodS, simNow, ingOpts)
		if err != nil {
			return fmt.Errorf("starting ingest pipeline: %w", err)
		}
		defer ing.Stop()
		fmt.Printf("teslad: ingest pipeline running (%s)\n", inputs)
	}

	// The daemon never runs the policy bare: the safety supervisor validates
	// every telemetry step and owns the staged fallbacks, its events flow
	// into the operator event log and the time-series store.
	events := telemetry.NewEventLog(256)
	sup, err := safety.Wrap(controller, safety.DefaultConfig(22, tbCfg.ACU.SetpointMinC, tbCfg.ACU.SetpointMaxC))
	if err != nil {
		return err
	}
	sup.SetSink(func(e safety.Event) {
		detail := e.Detail
		if e.Sensor >= 0 {
			detail = fmt.Sprintf("sensor %d: %s", e.Sensor, e.Detail)
		}
		events.Append(telemetry.Entry{TimeS: e.TimeS, Kind: string(e.Kind), Detail: detail})
		db.Insert("safety_events", map[string]string{"kind": string(e.Kind)},
			telemetry.Point{TimeS: e.TimeS, Value: float64(e.Level)})
	})

	// Durable store: recover the telemetry view, the checkpointed controller
	// and the operator counters from whatever a previous process persisted.
	var dr *durableRoom
	if dur.dir != "" {
		dr, err = openDurableRoom(dur.dir, dur.every, dur.sync, tbCfg.SamplePeriodS,
			len(tb.Sensors.ACU), len(tb.Sensors.DC), controller, sup)
		if err != nil {
			return fmt.Errorf("opening durable store %s: %w", dur.dir, err)
		}
		if ds := dr.Status(); ds.Recovered {
			fmt.Printf("teslad: recovered %d control steps (+%d warm-up records) from %s, checkpoint at step %d, %d replayed\n",
				dr.Steps, dr.WarmDone, dur.dir, ds.SnapshotStep, ds.ReplayedSteps)
		}
	}

	// Operator endpoint. Serve errors land on a channel so a broken listener
	// is reported rather than silently swallowed; on exit the server drains
	// in-flight operator requests before the process ends.
	d := &daemon{events: events, gw: gw, ing: ing}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", d.handleStatus)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealthz)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux}
	srvErr := make(chan error, 1)
	go func() { srvErr <- httpSrv.Serve(ln) }()
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()
	fmt.Printf("teslad: modbus %s, tsdb %s, operator http://%s\n", mbAddr, tsAddr, ln.Addr())

	// Warm-up hour so the model has history. The plant restarts cold with the
	// process, so the settling steps always run; with a recovered view they
	// only settle the plant — the policy's history comes from the WAL.
	view := dataset.NewTrace(tbCfg.SamplePeriodS, len(tb.Sensors.ACU), len(tb.Sensors.DC))
	if dr != nil {
		view = dr.View
	}
	if err := acuDev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(23)); err != nil {
		return err
	}
	for i := 0; i < 60; i++ {
		if ctx.Err() != nil {
			fmt.Println("teslad: interrupted during warm-up")
			return dr.Finalize(0)
		}
		s, err := collector.CollectInto(tsClient)
		if err != nil {
			return err
		}
		bridge.Refresh(s)
		simClock.Store(math.Float64bits(s.TimeS))
		appendView := dr == nil || (dr.Steps == 0 && i >= dr.WarmDone)
		if err := dr.LogWarm(i, s); err != nil {
			return err
		}
		if appendView {
			view.Append(s)
		}
	}

	fmt.Println("teslad: control loop running")
	step := 0
	if dr != nil {
		// Resume the operator counters where the durable record ends.
		step = dr.Steps
		d.update(func(st *status) {
			st.StepMinutes = dr.Steps
			st.EnergyKWh = dr.EnergyKWh
			st.Violations = dr.Violations
			st.Interruptions = dr.Interruptions
			st.Durability = dr.Status()
		})
	}
loop:
	for minutes == 0 || step < minutes {
		select {
		case <-ctx.Done():
			fmt.Println("teslad: signal received, shutting down")
			break loop
		case err := <-srvErr:
			return fmt.Errorf("operator endpoint: %w", err)
		default:
		}
		sp := sup.Decide(view, view.Len()-1)
		if err := acuDev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(sp)); err != nil {
			return err
		}
		s, err := collector.CollectInto(tsClient)
		if err != nil {
			return err
		}
		bridge.Refresh(s)
		simClock.Store(math.Float64bits(s.TimeS))
		view.Append(s)
		db.Insert("safety_level", nil, telemetry.Point{TimeS: s.TimeS, Value: float64(sup.Level())})

		if err := dr.LogStep(step, sp, s); err != nil {
			return err
		}
		step++
		sst := sup.Stats()
		var diag control.Diagnostics
		if ts, ok := controller.(*control.TESLA); ok {
			diag = ts.Diagnostics()
		}
		d.update(func(st *status) {
			st.StepMinutes = step
			st.SetpointC = s.SetpointC
			st.InletC = mean(s.ACUTemps)
			st.MaxColdC = s.MaxColdAisle
			st.ACUPowerKW = s.ACUPowerKW
			st.AvgServerKW = s.AvgServerKW
			st.EnergyKWh += s.ACUPowerKW * tbCfg.SamplePeriodS / 3600
			if s.MaxColdAisle > 22 {
				st.Violations++
			}
			if s.Interrupted {
				st.Interruptions++
			}
			st.SafetyLevel = sup.Level().String()
			st.SafetyMaxLevel = sup.MaxLevel().String()
			st.SafetyEscalations = sst.Escalations
			st.PolicyOverrides = sst.Overrides
			st.QuarantinedSensors = len(sup.Quarantined())
			st.PolicyDecisions = diag.Decisions
			st.PolicyHistoryFallbacks = diag.HistoryFallbacks
			st.PolicyOptimizerFallbacks = diag.OptimizerFallbacks
			st.Durability = dr.Status()
		})
		if step%15 == 0 {
			st := d.snapshot()
			fmt.Printf("teslad: t=%dmin sp=%.2f°C inlet=%.2f°C maxCold=%.2f°C power=%.2fkW energy=%.2fkWh safety=%s\n",
				st.StepMinutes, st.SetpointC, st.InletC, st.MaxColdC, st.ACUPowerKW, st.EnergyKWh, st.SafetyLevel)
		}
		if speedup > 0 {
			if !sleepCtx(ctx, time.Duration(float64(tbCfg.SamplePeriodS)/speedup*float64(time.Second))) {
				fmt.Println("teslad: signal received, shutting down")
				break
			}
		}
	}
	// Graceful-shutdown flush: a final checkpoint at the exact stopping step,
	// then a synced WAL — SIGTERM never loses an executed control step.
	if dr != nil {
		if err := dr.Finalize(step); err != nil {
			return fmt.Errorf("flushing durable store: %w", err)
		}
		ds := dr.Status()
		fmt.Printf("teslad: durable store flushed: %d WAL records, checkpoint at step %d\n", ds.WALRecords, ds.SnapshotStep)
	}
	st := d.snapshot()
	fmt.Printf("teslad: done after %d minutes, %.2f kWh, %d violation minutes, %d safety escalations (peak %s)\n",
		st.StepMinutes, st.EnergyKWh, st.Violations, st.SafetyEscalations, sup.MaxLevel())
	return nil
}
