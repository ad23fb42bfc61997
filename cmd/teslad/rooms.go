package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/parallel"
	"tesla/internal/safety"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// wirePath is the single room's §4 field stack around the runner's plant:
// the ACU register bridge served over Modbus/TCP and actuated through the
// gateway, and a Telegraf-style collector scraping every live sample into an
// InfluxDB-style store over HTTP. Its hooks run on the goroutine stepping the
// room.
type wirePath struct {
	bridge    *modbus.ACUBridge
	mb        *modbus.Server
	gw        *gateway.Gateway
	dev       *gateway.Device
	db        *telemetry.DB
	ts        *telemetry.Server
	client    *telemetry.Client
	collector *telemetry.Collector

	mbAddr, tsAddr string
	// simClock holds the last sample's time: the ingest pipeline's
	// compaction clock, since its retention cutoffs live in simulation
	// seconds like every sample this daemon stamps.
	simClock atomic.Uint64
	// err is the first failed TSDB scrape; the room's loop checks it after
	// every step.
	err error
}

// newWirePath starts the field stack on tb. retention selects the
// retention-tiered store, which keeps production-volume ingest (-inputs)
// memory-bounded.
func newWirePath(tb *testbed.Testbed, retention bool) (*wirePath, error) {
	w := &wirePath{bridge: modbus.NewACUBridge(tb), db: telemetry.NewDB(), collector: telemetry.NewCollector(tb)}
	if retention {
		w.db = telemetry.NewDBWithRetention(telemetry.RetentionConfig{})
	}
	w.mb = modbus.NewServer(w.bridge.Bank)
	var err error
	if w.mbAddr, err = w.mb.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	w.ts = telemetry.NewServer(w.db)
	if w.tsAddr, err = w.ts.Start("127.0.0.1:0"); err != nil {
		w.mb.Close()
		return nil, err
	}
	w.client = telemetry.NewClient(w.tsAddr)
	// All actuation flows through the gateway — the same component that
	// fronts the fleet at scale — so its health counters on /status and
	// /metrics reflect the real command path, not a side channel.
	w.gw = gateway.New(gateway.Config{Timeout: 2 * time.Second})
	if w.dev, err = w.gw.Add("acu-0", w.mbAddr); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// actuate is the room's Config.Actuate: a holding-register write the bridge
// latches into the plant.
func (w *wirePath) actuate(spC float64) error {
	return w.dev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(spC))
}

// publish is the room's Config.Publish: refresh the device's input
// registers, scrape the sample into the TSDB and advance the sim clock.
func (w *wirePath) publish(s testbed.Sample) {
	w.bridge.Refresh(s)
	if err := w.client.WriteLines(w.collector.Scrape(s)); err != nil && w.err == nil {
		w.err = fmt.Errorf("scraping into the TSDB: %w", err)
	}
	w.simClock.Store(math.Float64bits(s.TimeS))
}

func (w *wirePath) close() {
	w.gw.Close()
	w.mb.Close()
	w.ts.Close()
}

// host steps the standalone daemon's rooms and publishes their snapshots.
type host struct {
	runners []*fleet.Runner
	d       *daemon
	wire    *wirePath // the single room's field stack; nil in fleet mode
	durable bool
	pace    time.Duration
	hook    func(room, step int)
}

// runRooms is the standalone daemon: every room of the fleet contract is a
// fleet.Runner, and one parallel pool steps them — one worker per room, so
// pacing stays concurrent — feeding the bounded-queue ingestion pipeline
// whose rollup backs /fleet, /rooms/{id} and the fleet /metrics. A single
// room runs on the wire path. On cancellation every room drains at its step
// boundary. It returns each room's final result; a room drained before its
// horizon completed reports a zero result.
func runRooms(ctx context.Context, o options) ([]fleet.RoomResult, error) {
	cfg, err := fleetConfig(o)
	if err != nil {
		return nil, err
	}
	n := len(cfg.Rooms)
	h := &host{durable: cfg.DataDir != "", hook: o.stepHook}
	if n == 1 {
		cfg.Quantize = modbus.QuantizeTempC
		// The hooks close over h.wire, attached below once the plant exists;
		// warm-up and recovery replay never actuate, so the late binding is
		// safe.
		cfg.Actuate = func(_ int, spC float64) error { return h.wire.actuate(spC) }
		cfg.Publish = func(_ int, s testbed.Sample) { h.wire.publish(s) }
	}
	if o.speedup > 0 {
		h.pace = time.Duration(cfg.Testbed.SamplePeriodS / o.speedup * float64(time.Second))
	}

	queues := make([]*telemetry.Queue, n)
	names := make([]string, n)
	for i := range queues {
		queues[i] = telemetry.NewQueue(512)
		names[i] = cfg.RoomName(i)
	}
	h.runners, err = parallel.MapErr(n, n, func(i int) (*fleet.Runner, error) {
		return fleet.NewRunner(cfg, i, queues[i], "teslad")
	})
	// Until the rooms step, a failure abandons them: nothing live has run,
	// and recovery re-derives whatever unflushed warm-up the stores lose.
	fail := func(err error) ([]fleet.RoomResult, error) {
		for _, r := range h.runners {
			if r != nil {
				r.Abandon()
			}
		}
		return nil, err
	}
	if err != nil {
		return fail(err)
	}

	events := telemetry.NewEventLog(512)
	rollup := telemetry.NewIngestor(queues, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, 0)
	h.d = newDaemon(names, rollup, events)
	if n == 1 {
		if h.wire, err = newWirePath(h.runners[0].Plant(), o.inputs != ""); err != nil {
			return fail(err)
		}
		defer h.wire.close()
		h.d.gw = h.wire.gw
		if o.inputs != "" {
			simNow := func() float64 { return math.Float64frombits(h.wire.simClock.Load()) }
			ing, err := startIngest(h.wire.db, o.inputs, h.wire.gw, cfg.ColdLimitC, cfg.Testbed.SamplePeriodS, simNow,
				ingestOptions{gatherEvery: o.gatherEvery, compactEvery: o.compactEvery})
			if err != nil {
				return fail(fmt.Errorf("starting ingest pipeline: %w", err))
			}
			defer ing.Stop()
			h.d.ing = ing
			fmt.Printf("teslad: ingest pipeline running (%s)\n", o.inputs)
		}
	}
	for i, r := range h.runners {
		h.watchSafety(i)
		if rec := r.Recovery(); rec.Recovered {
			fmt.Printf("teslad: %s recovered %d control steps (+%d warm-up records) from %s, checkpoint at step %d, %d replayed\n",
				names[i], rec.StepRecords, rec.WarmupRecords, cfg.DataDir, rec.SnapshotStep, rec.ReplayedSteps)
		}
		h.publish(i)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", h.d.handleFleet)
	mux.HandleFunc("/rooms/", h.d.handleRoom)
	mux.HandleFunc("/healthz", h.d.handleHealthz)
	if h.wire != nil {
		mux.HandleFunc("/status", h.d.handleStatus)
		mux.HandleFunc("/metrics", h.d.handleMetrics)
	} else {
		mux.HandleFunc("/metrics", h.d.handleFleetMetrics)
	}
	ln, srvErr, drain, err := serveHandler(o.listen, mux)
	if err != nil {
		return fail(err)
	}
	defer drain()
	if h.wire != nil {
		fmt.Printf("teslad: modbus %s, tsdb %s, operator http://%s\n", h.wire.mbAddr, h.wire.tsAddr, ln.Addr())
	} else {
		fmt.Printf("teslad: fleet of %d rooms, operator http://%s\n", n, ln.Addr())
	}

	// A broken operator listener or a failed room stops every room; each
	// drains at its step boundary.
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	go func() {
		select {
		case err := <-srvErr:
			cancel(fmt.Errorf("operator endpoint: %w", err))
		case <-rctx.Done():
		}
	}()
	stopIng := make(chan struct{})
	var ingG parallel.Group
	ingG.Go(func() { rollup.Run(stopIng, time.Millisecond) })
	fmt.Println("teslad: control loop running")
	results, err := parallel.MapErr(n, n, func(i int) (fleet.RoomResult, error) {
		res, err := h.stepRoom(rctx, i)
		if err != nil {
			cancel(err)
		}
		return res, err
	})
	close(stopIng)
	ingG.Wait()
	if err == nil && ctx.Err() == nil {
		err = context.Cause(rctx)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		fmt.Println("teslad: signal received, rooms drained")
	}
	for _, rs := range h.d.snapshot() {
		fmt.Printf("teslad: %s done after %d minutes, %.2f kWh, %d violation minutes, %d safety escalations (peak %s)\n",
			rs.Name, rs.StepMinutes, rs.EnergyKWh, rs.Violations, rs.SafetyEscalations, rs.SafetyMaxLevel)
	}
	ro := rollup.Rollup()
	fmt.Printf("teslad: rollup: %d rooms, %d samples ingested / %d dropped (%d gaps), maxCold=%.2f°C, %d violation minutes, %.2f kWh\n",
		ro.Rooms, ro.Samples, ro.Dropped, ro.Gaps, ro.MaxColdC, ro.ViolationMin, ro.CoolingKWh)
	return results, nil
}

// watchSafety routes room i's supervisor events into the operator event log
// and, on the wire path, the time-series store.
func (h *host) watchSafety(i int) {
	name, events := h.runners[i].Name(), h.d.events
	h.runners[i].SetSafetySink(func(e safety.Event) {
		detail := e.Detail
		if e.Sensor >= 0 {
			detail = fmt.Sprintf("sensor %d: %s", e.Sensor, e.Detail)
		}
		events.Append(telemetry.Entry{TimeS: e.TimeS, Kind: string(e.Kind), Detail: name + ": " + detail})
		if h.wire != nil {
			h.wire.db.Insert("safety_events", map[string]string{"kind": string(e.Kind)},
				telemetry.Point{TimeS: e.TimeS, Value: float64(e.Level)})
		}
	})
}

// publish refreshes room i's operator snapshot from its runner; only the
// goroutine stepping the room calls it.
func (h *host) publish(i int) roomStatus {
	rs := statusOf(h.runners[i], h.durable)
	h.d.update(i, func(p *roomStatus) { *p = rs })
	return rs
}

// stepRoom drives room i until its horizon completes (Finish) or ctx ends
// (Drain: final checkpoint at the step boundary, WAL flushed and synced). A
// drained room returns a zero result.
func (h *host) stepRoom(ctx context.Context, i int) (fleet.RoomResult, error) {
	r := h.runners[i]
	var failed error
	for !r.Done() && ctx.Err() == nil {
		if err := r.Step(); err != nil {
			// The failed step may have decided without executing; a
			// checkpoint now would not match the log, so die like a crash.
			r.Abandon()
			return fleet.RoomResult{}, err
		}
		rs := h.publish(i)
		if h.wire != nil {
			if failed = h.wire.err; failed != nil {
				break
			}
			h.wire.db.Insert("safety_level", nil,
				telemetry.Point{TimeS: r.LastSample().TimeS, Value: float64(levelOrdinal(rs.SafetyLevel))})
			if rs.StepMinutes%15 == 0 {
				fmt.Printf("teslad: t=%dmin sp=%.2f°C inlet=%.2f°C maxCold=%.2f°C power=%.2fkW energy=%.2fkWh safety=%s\n",
					rs.StepMinutes, rs.SetpointC, rs.InletC, rs.MaxColdC, rs.ACUPowerKW, rs.EnergyKWh, rs.SafetyLevel)
			}
		}
		if h.hook != nil {
			h.hook(i, rs.StepMinutes)
		}
		if h.pace > 0 && !sleepCtx(ctx, h.pace) {
			break
		}
	}
	var res fleet.RoomResult
	var err error
	if r.Done() && failed == nil {
		res, err = r.Finish()
	} else {
		_, err = r.Drain()
	}
	rs := h.publish(i)
	if err == nil && h.durable {
		fmt.Printf("teslad: %s durable store flushed: %d WAL records, checkpoint at step %d\n",
			rs.Name, rs.Durability.Records, rs.Durability.SnapshotStep)
	}
	return res, errors.Join(failed, err)
}
