package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/safety"
	"tesla/internal/store"
	"tesla/internal/telemetry"
)

// roomStatus is the operator-facing snapshot of one room, published by the
// goroutine stepping it after every control step (publish). Single-room
// /status serves it flat; the fleet endpoints serve one per room.
type roomStatus struct {
	Room          int     `json:"room"`
	Name          string  `json:"name"`
	StepMinutes   int     `json:"step_minutes"`
	SetpointC     float64 `json:"setpoint_c"`
	InletC        float64 `json:"inlet_c"`
	MaxColdC      float64 `json:"max_cold_c"`
	ACUPowerKW    float64 `json:"acu_power_kw"`
	ACUDuty       float64 `json:"acu_duty"`
	AvgServerKW   float64 `json:"avg_server_kw"`
	ITPowerKW     float64 `json:"it_power_kw"`
	EnergyKWh     float64 `json:"energy_kwh"`
	Violations    int     `json:"violation_minutes"`
	Interruptions int     `json:"interruption_minutes"`

	// Safety-supervisor view: current and peak fallback stage, cumulative
	// escalations, policy outputs replaced, probes currently quarantined.
	SafetyLevel        string `json:"safety_level"`
	SafetyMaxLevel     string `json:"safety_max_level"`
	SafetyEscalations  uint64 `json:"safety_escalations"`
	PolicyOverrides    uint64 `json:"policy_overrides"`
	QuarantinedSensors int    `json:"quarantined_sensors"`

	// TESLA decision diagnostics (internal fallbacks inside the policy).
	PolicyDecisions          uint64 `json:"policy_decisions"`
	PolicyHistoryFallbacks   uint64 `json:"policy_history_fallbacks"`
	PolicyOptimizerFallbacks uint64 `json:"policy_optimizer_fallbacks"`

	// Durability is the WAL + checkpoint view (zero-valued when -datadir is
	// unset).
	Durability durStatus `json:"durability"`
	// QueueDepth counts the batch jobs placed on the room (scheduler mode).
	QueueDepth int `json:"queue_depth"`
}

// durStatus is the durability block served under /status and exported as
// tesla_wal_* / tesla_snapshot_* metrics: what recovery replayed, next to
// the store's WAL and snapshot accounting.
type durStatus struct {
	Enabled        bool `json:"enabled"`
	Recovered      bool `json:"recovered"`
	RecoveredSteps int  `json:"recovered_steps"`
	ReplayedSteps  int  `json:"replayed_steps"`
	ReplayMism     int  `json:"replay_mismatches"`
	SnapshotStep   int  `json:"last_checkpoint_step"` // -1 before the first checkpoint
	store.Stats
}

// statusOf builds a room's snapshot from its runner: counters from
// Runner.Status, instantaneous readings from the last delivered sample,
// durability from the store accounting and what recovery replayed.
func statusOf(r *fleet.Runner, durable bool) roomStatus {
	st, s, rec := r.Status(), r.LastSample(), r.Recovery()
	rs := roomStatus{
		Room:                     st.Room,
		Name:                     st.Name,
		StepMinutes:              st.Step,
		SetpointC:                s.SetpointC,
		InletC:                   mean(s.ACUTemps),
		MaxColdC:                 s.MaxColdAisle,
		ACUPowerKW:               s.ACUPowerKW,
		ACUDuty:                  s.ACUDuty,
		AvgServerKW:              s.AvgServerKW,
		ITPowerKW:                s.TotalIT,
		EnergyKWh:                st.EnergyKWh,
		Violations:               st.Violations,
		Interruptions:            st.Interruptions,
		SafetyLevel:              st.SafetyLevel.String(),
		SafetyMaxLevel:           st.SafetyMaxLevel.String(),
		SafetyEscalations:        st.Escalations,
		PolicyOverrides:          st.Overrides,
		QuarantinedSensors:       st.Quarantined,
		PolicyDecisions:          st.Decisions.Decisions,
		PolicyHistoryFallbacks:   st.Decisions.HistoryFallbacks,
		PolicyOptimizerFallbacks: st.Decisions.OptimizerFallbacks,
	}
	if durable {
		rs.Durability = durStatus{
			Enabled:        true,
			Recovered:      rec.Recovered,
			RecoveredSteps: rec.StepRecords,
			ReplayedSteps:  rec.ReplayedSteps,
			ReplayMism:     rec.DecisionMismatches,
			SnapshotStep:   st.Store.LastStep,
			Stats:          st.Store,
		}
	}
	return rs
}

// daemon is the shared state behind the standalone modes: per-room
// snapshots written by the goroutines stepping the rooms, the ingestion
// pipeline feeding the fleet rollup, and the shared event log. A room's
// goroutine only ever touches its own slot under the lock, so one slow room
// cannot block a sibling's publish; the operator endpoints read from
// arbitrary HTTP goroutines.
type daemon struct {
	mu     sync.RWMutex
	rooms  []roomStatus
	rollup *telemetry.Ingestor
	events *telemetry.EventLog
	gw     *gateway.Gateway // the single room's field bus; nil in fleet mode
	ing    *ingest.Service  // the -inputs pipeline; nil without it
}

func newDaemon(names []string, rollup *telemetry.Ingestor, events *telemetry.EventLog) *daemon {
	d := &daemon{rooms: make([]roomStatus, len(names)), rollup: rollup, events: events}
	for i, name := range names {
		d.rooms[i] = roomStatus{
			Room:           i,
			Name:           name,
			SafetyLevel:    safety.LevelNormal.String(),
			SafetyMaxLevel: safety.LevelNormal.String(),
		}
	}
	return d
}

func (d *daemon) update(i int, fn func(*roomStatus)) {
	d.mu.Lock()
	fn(&d.rooms[i])
	d.mu.Unlock()
}

func (d *daemon) snapshot() []roomStatus {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]roomStatus(nil), d.rooms...)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleStatus serves the single room's snapshot next to the field-bus and
// ingest health and the recent safety events.
func (d *daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		roomStatus
		Gateway      *gateway.Stats    `json:"gateway,omitempty"`
		Ingest       *ingest.Stats     `json:"ingest,omitempty"`
		RecentEvents []telemetry.Entry `json:"recent_events"`
	}{roomStatus: d.snapshot()[0]}
	if d.gw != nil {
		gs := d.gw.Stats()
		out.Gateway = &gs
	}
	if d.ing != nil {
		is := d.ing.Stats()
		out.Ingest = &is
	}
	if d.events != nil {
		out.RecentEvents = d.events.Recent(16)
	}
	writeJSON(w, out)
}

// handleFleet serves the estate view: the ingested rollup next to every
// room's authoritative loop snapshot and its (possibly lagging) ingested
// aggregate.
func (d *daemon) handleFleet(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Rollup       telemetry.Rollup    `json:"rollup"`
		Rooms        []roomStatus        `json:"rooms"`
		RoomAggs     []telemetry.RoomAgg `json:"room_aggs"`
		RecentEvents []telemetry.Entry   `json:"recent_events"`
	}{
		Rollup:   d.rollup.Rollup(),
		Rooms:    d.snapshot(),
		RoomAggs: d.rollup.RoomAggs(),
	}
	if d.events != nil {
		out.RecentEvents = d.events.Recent(16)
	}
	writeJSON(w, out)
}

// handleRoom serves one room's detail at /rooms/{id}.
func (d *daemon) handleRoom(w http.ResponseWriter, r *http.Request) {
	idStr := strings.Trim(strings.TrimPrefix(r.URL.Path, "/rooms/"), "/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad room id %q", idStr), http.StatusBadRequest)
		return
	}
	rooms := d.snapshot()
	if id < 0 || id >= len(rooms) {
		http.Error(w, fmt.Sprintf("room %d not in fleet of %d", id, len(rooms)), http.StatusNotFound)
		return
	}
	writeJSON(w, struct {
		roomStatus
		Ingested telemetry.RoomAgg `json:"ingested"`
	}{roomStatus: rooms[id], Ingested: d.rollup.RoomAggs()[id]})
}

// handleHealthz is the readiness probe: 503 until every room has published
// at least one control step (training and warm-up still in progress), 200
// after — so an orchestrator only routes to a daemon whose rooms are live.
func (d *daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	for _, rs := range d.snapshot() {
		if rs.StepMinutes == 0 {
			http.Error(w, fmt.Sprintf("room %s warming up", rs.Name), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the single room's Prometheus exposition.
func (d *daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s := d.snapshot()[0]
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE tesla_setpoint_celsius gauge\ntesla_setpoint_celsius %g\n", s.SetpointC)
	fmt.Fprintf(w, "# TYPE tesla_inlet_celsius gauge\ntesla_inlet_celsius %g\n", s.InletC)
	fmt.Fprintf(w, "# TYPE tesla_max_cold_aisle_celsius gauge\ntesla_max_cold_aisle_celsius %g\n", s.MaxColdC)
	fmt.Fprintf(w, "# TYPE tesla_acu_power_kw gauge\ntesla_acu_power_kw %g\n", s.ACUPowerKW)
	fmt.Fprintf(w, "# TYPE tesla_cooling_energy_kwh counter\ntesla_cooling_energy_kwh %g\n", s.EnergyKWh)
	fmt.Fprintf(w, "# TYPE tesla_violation_minutes counter\ntesla_violation_minutes %d\n", s.Violations)
	fmt.Fprintf(w, "# TYPE tesla_interruption_minutes counter\ntesla_interruption_minutes %d\n", s.Interruptions)
	fmt.Fprintf(w, "# TYPE tesla_safety_level gauge\ntesla_safety_level %d\n", levelOrdinal(s.SafetyLevel))
	fmt.Fprintf(w, "# TYPE tesla_safety_escalations_total counter\ntesla_safety_escalations_total %d\n", s.SafetyEscalations)
	fmt.Fprintf(w, "# TYPE tesla_policy_overrides_total counter\ntesla_policy_overrides_total %d\n", s.PolicyOverrides)
	fmt.Fprintf(w, "# TYPE tesla_quarantined_sensors gauge\ntesla_quarantined_sensors %d\n", s.QuarantinedSensors)
	fmt.Fprintf(w, "# TYPE tesla_policy_history_fallbacks_total counter\ntesla_policy_history_fallbacks_total %d\n", s.PolicyHistoryFallbacks)
	fmt.Fprintf(w, "# TYPE tesla_policy_optimizer_fallbacks_total counter\ntesla_policy_optimizer_fallbacks_total %d\n", s.PolicyOptimizerFallbacks)
	if s.Durability.Enabled {
		writeDurabilityMetrics(w, s.Durability)
	}
	if d.gw != nil {
		d.gw.Stats().WriteMetrics(w, "")
	}
	if d.ing != nil {
		writeIngestMetrics(w, d.ing.Stats())
	}
	d.writeEventMetrics(w)
}

// handleFleetMetrics serves the aggregate Prometheus exposition: the fleet
// rollup with its loss accounting (dropped samples, sequence gaps,
// overwritten events) plus per-room gauges labelled by room name.
func (d *daemon) handleFleetMetrics(w http.ResponseWriter, _ *http.Request) {
	r := d.rollup.Rollup()
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
	writeRoomFamilies(w, d.snapshot(),
		roomFamily{"tesla_room_setpoint_celsius", "gauge", func(rs roomStatus) any { return rs.SetpointC }},
		roomFamily{"tesla_room_max_cold_aisle_celsius", "gauge", func(rs roomStatus) any { return rs.MaxColdC }},
		roomFamily{"tesla_room_safety_level", "gauge", func(rs roomStatus) any { return levelOrdinal(rs.SafetyLevel) }},
		roomFamily{"tesla_room_step_minutes", "counter", func(rs roomStatus) any { return rs.StepMinutes }},
	)
	d.writeEventMetrics(w)
}

// roomFamily is one per-room metric family: its name, Prometheus type, and
// each room's value (a float64 renders as %g, an int as %d).
type roomFamily struct {
	name, typ string
	val       func(roomStatus) any
}

// writeRoomFamilies writes each family as one typed group with a sample per
// room, labelled by room name.
func writeRoomFamilies(w io.Writer, rooms []roomStatus, families ...roomFamily) {
	for _, f := range families {
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, rs := range rooms {
			fmt.Fprintf(w, "%s{room=%q} %v\n", f.name, rs.Name, f.val(rs))
		}
	}
}

// writeEventMetrics exposes the safety event log's per-kind counts and its
// overwrite loss.
func (d *daemon) writeEventMetrics(w io.Writer) {
	if d.events == nil {
		return
	}
	counts := d.events.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "# TYPE tesla_safety_events_total counter\n")
	for _, k := range kinds {
		fmt.Fprintf(w, "tesla_safety_events_total{kind=%q} %d\n", k, counts[k])
	}
	fmt.Fprintf(w, "# TYPE tesla_events_dropped_total counter\ntesla_events_dropped_total %d\n", d.events.Dropped())
}

// writeDurabilityMetrics renders the tesla_wal_* / tesla_snapshot_* gauges
// and counters for the Prometheus exposition.
func writeDurabilityMetrics(w io.Writer, ds durStatus) {
	fmt.Fprintf(w, "# TYPE tesla_wal_records_total counter\ntesla_wal_records_total %d\n", ds.Records)
	fmt.Fprintf(w, "# TYPE tesla_wal_bytes_total counter\ntesla_wal_bytes_total %d\n", ds.Bytes)
	fmt.Fprintf(w, "# TYPE tesla_wal_syncs_total counter\ntesla_wal_syncs_total %d\n", ds.Syncs)
	fmt.Fprintf(w, "# TYPE tesla_wal_segments gauge\ntesla_wal_segments %d\n", ds.Segments)
	fmt.Fprintf(w, "# TYPE tesla_snapshot_writes_total counter\ntesla_snapshot_writes_total %d\n", ds.Snapshots)
	fmt.Fprintf(w, "# TYPE tesla_snapshot_last_step gauge\ntesla_snapshot_last_step %d\n", ds.SnapshotStep)
	fmt.Fprintf(w, "# TYPE tesla_snapshot_last_bytes gauge\ntesla_snapshot_last_bytes %d\n", ds.LastBytes)
	fmt.Fprintf(w, "# TYPE tesla_recovered_steps gauge\ntesla_recovered_steps %d\n", ds.RecoveredSteps)
	fmt.Fprintf(w, "# TYPE tesla_replay_mismatches gauge\ntesla_replay_mismatches %d\n", ds.ReplayMism)
}

// levelOrdinal maps the supervisor stage name back to its numeric ordinal for
// the gauge (0 normal … 3 emergency).
func levelOrdinal(name string) int {
	switch name {
	case "hold-last-safe":
		return 1
	case "backstop":
		return 2
	case "emergency":
		return 3
	default:
		return 0
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}
