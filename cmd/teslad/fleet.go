package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tesla/internal/dataset"
	"tesla/internal/fleet"
	"tesla/internal/parallel"
	"tesla/internal/safety"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
	"tesla/internal/workload"
)

// coldLimitC is the ASHRAE cold-aisle limit every room is supervised against.
const coldLimitC = 22

// roomStatus is the operator-facing snapshot of one fleet room, written by
// that room's control loop once a step.
type roomStatus struct {
	Room          int     `json:"room"`
	Name          string  `json:"name"`
	StepMinutes   int     `json:"step_minutes"`
	SetpointC     float64 `json:"setpoint_c"`
	MaxColdC      float64 `json:"max_cold_c"`
	ACUPowerKW    float64 `json:"acu_power_kw"`
	EnergyKWh     float64 `json:"energy_kwh"`
	Violations    int     `json:"violation_minutes"`
	Interruptions int     `json:"interruption_minutes"`

	SafetyLevel    string `json:"safety_level"`
	SafetyMaxLevel string `json:"safety_max_level"`
	Escalations    uint64 `json:"safety_escalations"`
	Overrides      uint64 `json:"policy_overrides"`

	// Durability is the room's WAL + checkpoint view (zero-valued when
	// -datadir is unset).
	Durability durStatus `json:"durability"`
}

// fleetDaemon is the shared state behind `teslad -rooms N`: per-room
// snapshots written by the room loops, the ingestion pipeline feeding the
// fleet rollup, and the shared event log. Room loops only ever touch their
// own slot under the lock, so one slow room cannot block a sibling's publish.
type fleetDaemon struct {
	mu     sync.RWMutex
	rooms  []roomStatus
	ing    *telemetry.Ingestor
	events *telemetry.EventLog
}

func newFleetDaemon(names []string, ing *telemetry.Ingestor, events *telemetry.EventLog) *fleetDaemon {
	fd := &fleetDaemon{rooms: make([]roomStatus, len(names)), ing: ing, events: events}
	for i, name := range names {
		fd.rooms[i] = roomStatus{
			Room:           i,
			Name:           name,
			SafetyLevel:    safety.LevelNormal.String(),
			SafetyMaxLevel: safety.LevelNormal.String(),
		}
	}
	return fd
}

func (fd *fleetDaemon) updateRoom(i int, fn func(*roomStatus)) {
	fd.mu.Lock()
	fn(&fd.rooms[i])
	fd.mu.Unlock()
}

func (fd *fleetDaemon) snapshotRooms() []roomStatus {
	fd.mu.RLock()
	defer fd.mu.RUnlock()
	return append([]roomStatus(nil), fd.rooms...)
}

// handleFleet serves the estate view: the ingested rollup next to every
// room's authoritative loop snapshot and its (possibly lagging) ingested
// aggregate.
func (fd *fleetDaemon) handleFleet(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Rollup       telemetry.Rollup    `json:"rollup"`
		Rooms        []roomStatus        `json:"rooms"`
		RoomAggs     []telemetry.RoomAgg `json:"room_aggs"`
		RecentEvents []telemetry.Entry   `json:"recent_events"`
	}{
		Rollup:   fd.ing.Rollup(),
		Rooms:    fd.snapshotRooms(),
		RoomAggs: fd.ing.RoomAggs(),
	}
	if fd.events != nil {
		out.RecentEvents = fd.events.Recent(16)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleRoom serves one room's detail at /rooms/{id}.
func (fd *fleetDaemon) handleRoom(w http.ResponseWriter, r *http.Request) {
	idStr := strings.Trim(strings.TrimPrefix(r.URL.Path, "/rooms/"), "/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad room id %q", idStr), http.StatusBadRequest)
		return
	}
	fd.mu.RLock()
	n := len(fd.rooms)
	fd.mu.RUnlock()
	if id < 0 || id >= n {
		http.Error(w, fmt.Sprintf("room %d not in fleet of %d", id, n), http.StatusNotFound)
		return
	}
	fd.mu.RLock()
	st := fd.rooms[id]
	fd.mu.RUnlock()
	out := struct {
		roomStatus
		Ingested telemetry.RoomAgg `json:"ingested"`
	}{roomStatus: st, Ingested: fd.ing.RoomAggs()[id]}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleHealthz is the fleet readiness probe: 503 until every room has
// published at least one control step, 200 after — so an orchestrator only
// routes to a daemon whose whole fleet is live.
func (fd *fleetDaemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	for _, rs := range fd.snapshotRooms() {
		if rs.StepMinutes == 0 {
			http.Error(w, fmt.Sprintf("room %s warming up", rs.Name), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the aggregate Prometheus exposition: the fleet rollup
// with its loss accounting (dropped samples, sequence gaps, overwritten
// events) plus per-room gauges labelled by room name.
func (fd *fleetDaemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	r := fd.ing.Rollup()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE tesla_fleet_rooms gauge\ntesla_fleet_rooms %d\n", r.Rooms)
	fmt.Fprintf(w, "# TYPE tesla_fleet_samples_ingested_total counter\ntesla_fleet_samples_ingested_total %d\n", r.Samples)
	fmt.Fprintf(w, "# TYPE tesla_fleet_samples_dropped_total counter\ntesla_fleet_samples_dropped_total %d\n", r.Dropped)
	fmt.Fprintf(w, "# TYPE tesla_fleet_seq_gaps_total counter\ntesla_fleet_seq_gaps_total %d\n", r.Gaps)
	fmt.Fprintf(w, "# TYPE tesla_fleet_max_cold_aisle_celsius gauge\ntesla_fleet_max_cold_aisle_celsius %g\n", r.MaxColdC)
	fmt.Fprintf(w, "# TYPE tesla_fleet_cooling_power_kw gauge\ntesla_fleet_cooling_power_kw %g\n", r.TotalCoolingKW)
	fmt.Fprintf(w, "# TYPE tesla_fleet_cooling_energy_kwh counter\ntesla_fleet_cooling_energy_kwh %g\n", r.CoolingKWh)
	fmt.Fprintf(w, "# TYPE tesla_fleet_violation_minutes counter\ntesla_fleet_violation_minutes %d\n", r.ViolationMin)
	fmt.Fprintf(w, "# TYPE tesla_fleet_interruption_minutes counter\ntesla_fleet_interruption_minutes %d\n", r.InterruptionMin)
	fmt.Fprintf(w, "# TYPE tesla_fleet_safety_level_steps_total counter\n")
	for lvl, n := range r.SafetyLevels {
		fmt.Fprintf(w, "tesla_fleet_safety_level_steps_total{level=\"%d\"} %d\n", lvl, n)
	}
	for _, rs := range fd.snapshotRooms() {
		fmt.Fprintf(w, "tesla_room_setpoint_celsius{room=%q} %g\n", rs.Name, rs.SetpointC)
		fmt.Fprintf(w, "tesla_room_max_cold_aisle_celsius{room=%q} %g\n", rs.Name, rs.MaxColdC)
		fmt.Fprintf(w, "tesla_room_safety_level{room=%q} %d\n", rs.Name, levelOrdinal(rs.SafetyLevel))
		fmt.Fprintf(w, "tesla_room_step_minutes{room=%q} %d\n", rs.Name, rs.StepMinutes)
	}
	if fd.events != nil {
		counts := fd.events.Counts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "# TYPE tesla_safety_events_total counter\n")
		for _, k := range kinds {
			fmt.Fprintf(w, "tesla_safety_events_total{kind=%q} %d\n", k, counts[k])
		}
		fmt.Fprintf(w, "# TYPE tesla_events_dropped_total counter\ntesla_events_dropped_total %d\n", fd.events.Dropped())
	}
}

// runFleet is `teslad -rooms N`: N concurrent room control loops — each with
// its own plant, -policy controller and safety supervisor, seeded from the
// fleet seed's per-room substreams — feeding the bounded-queue ingestion pipeline
// whose rollup backs the /fleet, /rooms/{id} and /metrics endpoints. The
// rooms drive their plants in-process (the Modbus/TSDB wire stack is the
// single-room mode's job); what fleet mode exercises is the orchestration:
// isolation, backpressure and aggregate observability. It returns every
// room's final status.
func runFleet(ctx context.Context, listen string, rooms, minutes int, speedup float64, seed uint64, policyName string, dur durOptions) ([]roomStatus, error) {
	newPolicy, err := policyFactory(policyName)
	if err != nil {
		return nil, err
	}

	tbCfg := testbed.DefaultConfig()
	specs := fleet.DiurnalSpecs(rooms, seed)
	names := make([]string, rooms)
	for i := range names {
		names[i] = specs[i].Name
	}
	queues := make([]*telemetry.Queue, rooms)
	for i := range queues {
		queues[i] = telemetry.NewQueue(512)
	}
	ing := telemetry.NewIngestor(queues, coldLimitC, tbCfg.SamplePeriodS, 0)
	events := telemetry.NewEventLog(512)
	fd := newFleetDaemon(names, ing, events)

	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", fd.handleFleet)
	mux.HandleFunc("/rooms/", fd.handleRoom)
	mux.HandleFunc("/healthz", fd.handleHealthz)
	mux.HandleFunc("/metrics", fd.handleMetrics)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: mux}
	srvErr := make(chan error, 1)
	go func() { srvErr <- httpSrv.Serve(ln) }()
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}()
	fmt.Printf("teslad: fleet of %d rooms, operator http://%s\n", rooms, ln.Addr())

	// The ingestor drains on its own goroutine for the life of the fleet;
	// room loops fan out with one worker each so pacing stays concurrent.
	stopIng := make(chan struct{})
	var ingG parallel.Group
	ingG.Go(func() { ing.Run(stopIng, time.Millisecond) })
	_, err = parallel.MapErr(rooms, rooms, func(i int) (struct{}, error) {
		return struct{}{}, fd.runRoom(ctx, roomLoopConfig{
			idx:       i,
			tbCfg:     tbCfg,
			profile:   specs[i].Profile,
			seed:      seed,
			minutes:   minutes,
			speedup:   speedup,
			dur:       dur,
			newPolicy: newPolicy,
		}, queues[i])
	})
	close(stopIng)
	ingG.Wait()
	if err != nil {
		return nil, err
	}

	r := ing.Rollup()
	fmt.Printf("teslad: fleet done: %d rooms, %d samples ingested / %d dropped (%d gaps), maxCold=%.2f°C, %d violation minutes, %.2f kWh\n",
		r.Rooms, r.Samples, r.Dropped, r.Gaps, r.MaxColdC, r.ViolationMin, r.CoolingKWh)
	return fd.snapshotRooms(), nil
}

// roomLoopConfig carries one room loop's wiring.
type roomLoopConfig struct {
	idx       int
	tbCfg     testbed.Config
	profile   workload.Profile
	seed      uint64
	minutes   int
	speedup   float64
	dur       durOptions
	newPolicy fleet.PolicyFactory
}

// runRoom is one room's live control loop: warm up the plant, then decide /
// actuate / sample once a (possibly paced) control period, pushing telemetry
// into the room's bounded queue and publishing the room snapshot. Everything
// here is room-local; the only shared touch points are the daemon lock, the
// non-blocking queue and the event log.
func (fd *fleetDaemon) runRoom(ctx context.Context, rc roomLoopConfig, q *telemetry.Queue) error {
	name := fd.snapshotRooms()[rc.idx].Name
	tbCfg := rc.tbCfg
	tbSeed, polSeed := fleet.RoomSeeds(rc.seed, uint64(rc.idx))
	tbCfg.Seed = tbSeed
	tb, err := testbed.New(tbCfg)
	if err != nil {
		return fmt.Errorf("room %s: %w", name, err)
	}
	tb.UseProfile(rc.profile)
	tb.SetSetpoint(23)

	pol, err := rc.newPolicy(rc.idx, polSeed)
	if err != nil {
		return fmt.Errorf("room %s: building policy: %w", name, err)
	}
	sup, err := safety.Wrap(pol, safety.DefaultConfig(coldLimitC, tbCfg.ACU.SetpointMinC, tbCfg.ACU.SetpointMaxC))
	if err != nil {
		return fmt.Errorf("room %s: %w", name, err)
	}
	if fd.events != nil {
		sup.SetSink(func(e safety.Event) {
			detail := e.Detail
			if e.Sensor >= 0 {
				detail = fmt.Sprintf("sensor %d: %s", e.Sensor, e.Detail)
			}
			fd.events.Append(telemetry.Entry{TimeS: e.TimeS, Kind: string(e.Kind), Detail: fmt.Sprintf("%s: %s", name, detail)})
		})
	}

	var dr *durableRoom
	if rc.dur.dir != "" {
		dr, err = openDurableRoom(filepath.Join(rc.dur.dir, name), rc.dur.every, rc.dur.sync,
			tbCfg.SamplePeriodS, len(tb.Sensors.ACU), len(tb.Sensors.DC), pol, sup)
		if err != nil {
			return fmt.Errorf("room %s: opening durable store: %w", name, err)
		}
	}

	view := dataset.NewTrace(tbCfg.SamplePeriodS, len(tb.Sensors.ACU), len(tb.Sensors.DC))
	if dr != nil {
		view = dr.View
	}
	for i := 0; i < 60; i++ {
		if ctx.Err() != nil {
			return dr.Finalize(0)
		}
		s := tb.Advance()
		appendView := dr == nil || (dr.Steps == 0 && i >= dr.WarmDone)
		if err := dr.LogWarm(i, s); err != nil {
			return fmt.Errorf("room %s: %w", name, err)
		}
		if appendView {
			view.Append(s)
		}
	}

	start := 0
	if dr != nil {
		start = dr.Steps
		fd.updateRoom(rc.idx, func(rs *roomStatus) {
			rs.StepMinutes = dr.Steps
			rs.EnergyKWh = dr.EnergyKWh
			rs.Violations = dr.Violations
			rs.Interruptions = dr.Interruptions
			rs.Durability = dr.Status()
		})
	}
	step := start
	for rc.minutes == 0 || step < rc.minutes {
		if ctx.Err() != nil {
			break
		}
		sp := sup.Decide(view, view.Len()-1)
		tb.SetSetpoint(sp)
		s := tb.Advance()
		view.Append(s)
		q.Push(telemetry.RoomSample{Room: rc.idx, Seq: uint64(step), Level: int(sup.Level()), S: s})

		if err := dr.LogStep(step, sp, s); err != nil {
			return fmt.Errorf("room %s: %w", name, err)
		}
		step++
		sst := sup.Stats()
		fd.updateRoom(rc.idx, func(rs *roomStatus) {
			rs.StepMinutes = step
			rs.SetpointC = s.SetpointC
			rs.MaxColdC = s.MaxColdAisle
			rs.ACUPowerKW = s.ACUPowerKW
			rs.EnergyKWh += s.ACUPowerKW * tbCfg.SamplePeriodS / 3600
			if s.MaxColdAisle > coldLimitC {
				rs.Violations++
			}
			if s.Interrupted {
				rs.Interruptions++
			}
			rs.SafetyLevel = sup.Level().String()
			rs.SafetyMaxLevel = sup.MaxLevel().String()
			rs.Escalations = sst.Escalations
			rs.Overrides = sst.Overrides
			rs.Durability = dr.Status()
		})
		if rc.speedup > 0 {
			if !sleepCtx(ctx, time.Duration(tbCfg.SamplePeriodS/rc.speedup*float64(time.Second))) {
				break
			}
		}
	}
	// Graceful exit — signal or completed horizon: final checkpoint at the
	// exact stopping step, WAL flushed and synced.
	if err := dr.Finalize(step); err != nil {
		return fmt.Errorf("room %s: flushing durable store: %w", name, err)
	}
	return nil
}
