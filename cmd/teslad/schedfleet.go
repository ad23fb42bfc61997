package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"tesla/internal/experiment"
	"tesla/internal/scheduler"
)

// schedDaemon is the shared state behind `teslad -scheduler`: the per-room
// snapshots (embedded daemon) plus the scheduler's counters and queue
// outcome, published by the lockstep loop once a barrier and read by the
// operator endpoints.
type schedDaemon struct {
	*daemon
	mode  string
	sched scheduler.Counters
	jobs  scheduler.JobStats
}

// publish refreshes the snapshot from the harness at a step barrier. The
// harness is quiescent between Step calls, so reading it here is race-free.
func (sd *schedDaemon) publish(h *scheduler.Harness) {
	c := h.Scheduler().Counters()
	js := h.Scheduler().Stats(h.Now())
	rooms := make([]roomStatus, len(sd.rooms))
	for i := range rooms {
		rooms[i] = statusOf(h.Runner(i), false)
		rooms[i].QueueDepth = c.RoomQueue[rooms[i].Name]
	}
	sd.mu.Lock()
	sd.rooms, sd.sched, sd.jobs = rooms, c, js
	sd.mu.Unlock()
}

// handleFleet serves the scheduled-fleet estate view: every room's snapshot
// next to the scheduler's counters and the job queue's outcome.
func (sd *schedDaemon) handleFleet(w http.ResponseWriter, _ *http.Request) {
	sd.mu.RLock()
	out := struct {
		Mode        string             `json:"scheduler_mode"`
		StepMinutes int                `json:"step_minutes"`
		Rooms       []roomStatus       `json:"rooms"`
		Sched       scheduler.Counters `json:"sched"`
		Jobs        scheduler.JobStats `json:"jobs"`
	}{
		Mode:  sd.mode,
		Rooms: append([]roomStatus(nil), sd.rooms...),
		Sched: sd.sched.Clone(),
		Jobs:  sd.jobs,
	}
	sd.mu.RUnlock()
	out.StepMinutes = out.Rooms[0].StepMinutes // the rooms step in lockstep
	writeJSON(w, out)
}

// handleMetrics serves the scheduler's Prometheus exposition: the
// placement/deferral/migration counters, the queue gauges (fleet-wide and
// per room) and the per-room thermal state the decisions are based on.
func (sd *schedDaemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	sd.mu.RLock()
	c := sd.sched.Clone()
	jobs := sd.jobs
	rooms := append([]roomStatus(nil), sd.rooms...)
	sd.mu.RUnlock()
	step := rooms[0].StepMinutes

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE tesla_sched_step_minutes counter\ntesla_sched_step_minutes %d\n", step)
	fmt.Fprintf(w, "# TYPE tesla_sched_placements_total counter\ntesla_sched_placements_total %d\n", c.Placements)
	fmt.Fprintf(w, "# TYPE tesla_sched_deferrals_total counter\ntesla_sched_deferrals_total %d\n", c.Deferrals)
	writeSchedMigrations(w, c)
	fmt.Fprintf(w, "# TYPE tesla_sched_waiting_jobs gauge\ntesla_sched_waiting_jobs %d\n", c.Waiting)
	fmt.Fprintf(w, "# TYPE tesla_sched_running_jobs gauge\ntesla_sched_running_jobs %d\n", c.RunningJobs)
	fmt.Fprintf(w, "# TYPE tesla_sched_completed_jobs gauge\ntesla_sched_completed_jobs %d\n", c.CompletedJobs)
	fmt.Fprintf(w, "# TYPE tesla_sched_mean_wait_seconds gauge\ntesla_sched_mean_wait_seconds %g\n", jobs.MeanWaitS)
	writeRoomFamilies(w, rooms,
		roomFamily{"tesla_sched_room_queue_depth", "gauge", func(rs roomStatus) any { return rs.QueueDepth }},
		roomFamily{"tesla_room_setpoint_celsius", "gauge", func(rs roomStatus) any { return rs.SetpointC }},
		roomFamily{"tesla_room_max_cold_aisle_celsius", "gauge", func(rs roomStatus) any { return rs.MaxColdC }},
		roomFamily{"tesla_room_acu_duty", "gauge", func(rs roomStatus) any { return rs.ACUDuty }},
		roomFamily{"tesla_room_it_power_kw", "gauge", func(rs roomStatus) any { return rs.ITPowerKW }},
		roomFamily{"tesla_room_cooling_energy_kwh", "counter", func(rs roomStatus) any { return rs.EnergyKWh }},
	)
}

// writeSchedMigrations emits the migration counter with its reason label.
// The two built-in reasons always appear (zero-valued before any migration)
// so dashboards can rate() them from the start; extra reasons follow sorted.
func writeSchedMigrations(w http.ResponseWriter, c scheduler.Counters) {
	fmt.Fprintf(w, "# TYPE tesla_sched_migrations_total counter\n")
	known := []string{scheduler.ReasonThermal, scheduler.ReasonCapacity}
	for _, r := range known {
		fmt.Fprintf(w, "tesla_sched_migrations_total{reason=%q} %d\n", r, c.Migrations[r])
	}
	extra := make([]string, 0, len(c.Migrations))
	for r := range c.Migrations {
		if r != scheduler.ReasonThermal && r != scheduler.ReasonCapacity {
			extra = append(extra, r)
		}
	}
	sort.Strings(extra)
	for _, r := range extra {
		fmt.Fprintf(w, "tesla_sched_migrations_total{reason=%q} %d\n", r, c.Migrations[r])
	}
}

// runSchedFleet is `teslad -rooms N -scheduler none|defer|full`: the lockstep
// scheduled fleet. Heterogeneous rooms (the study's standard/weak/large
// archetypes tiled out to N) advance in lockstep; at every step barrier the
// global batch scheduler reads each room's telemetry and places, defers or
// migrates jobs before the fleet steps again. The run is deterministic in
// (-rooms, -seed, -policy, -scheduler) and independent of the worker count.
func runSchedFleet(ctx context.Context, o options) error {
	mode, err := scheduler.ParseMode(o.sched)
	if err != nil {
		return err
	}
	if o.minutes <= 0 {
		return fmt.Errorf("-scheduler needs a finite horizon: set -minutes > 0")
	}
	fc, err := fleetConfig(o)
	if err != nil {
		return err
	}
	rooms := o.rooms
	fc.Rooms = experiment.TiledSpecs(rooms, o.seed)
	fc.WarmupS = 600
	jobs := experiment.ScaledSchedJobs(rooms, fc.EvalS)
	h, err := scheduler.NewHarness(scheduler.FleetConfig{
		Fleet: fc,
		Sched: scheduler.DefaultConfig(mode),
		Jobs:  jobs,
	})
	if err != nil {
		return err
	}

	names := make([]string, rooms)
	for i := range names {
		names[i] = fc.RoomName(i)
	}
	sd := &schedDaemon{daemon: newDaemon(names, nil, nil), mode: mode.String()}
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", sd.handleFleet)
	mux.HandleFunc("/status", sd.handleFleet)
	mux.HandleFunc("/metrics", sd.handleMetrics)
	mux.HandleFunc("/healthz", sd.handleHealthz)
	ln, srvErr, drain, err := serveHandler(o.listen, mux)
	if err != nil {
		h.Abandon()
		return err
	}
	defer drain()
	fmt.Printf("teslad: scheduled fleet of %d rooms (scheduler %s, policy %s), %d batch jobs queued, operator http://%s\n",
		rooms, mode, o.policy, len(jobs), ln.Addr())

	for !h.Done() {
		select {
		case <-ctx.Done():
			fmt.Println("teslad: signal received, abandoning scheduled fleet")
			h.Abandon()
			c := h.Scheduler().Counters()
			fmt.Printf("teslad: scheduler at abandon: %d placements, %d deferrals, %d migrations, %d waiting\n",
				c.Placements, c.Deferrals, c.MigrationsTotal(), c.Waiting)
			return nil
		case err := <-srvErr:
			h.Abandon()
			return fmt.Errorf("operator endpoint: %w", err)
		default:
		}
		if err := h.Step(); err != nil {
			h.Abandon()
			return err
		}
		sd.publish(h)
		if o.speedup > 0 {
			if !sleepCtx(ctx, time.Duration(fc.Testbed.SamplePeriodS/o.speedup*float64(time.Second))) {
				fmt.Println("teslad: signal received, abandoning scheduled fleet")
				h.Abandon()
				return nil
			}
		}
	}
	res, err := h.Finish()
	if err != nil {
		return err
	}
	fmt.Printf("teslad: scheduled fleet done: %d rooms × %d steps, %.2f kWh cooling, %.2f%% true TSV, joint %.2f\n",
		rooms, o.minutes, res.CoolingKWh, 100*res.TrueTSVFrac, res.JointScore)
	fmt.Printf("teslad: scheduler: %d placements, %d deferrals, %d migrations; %d/%d jobs completed, mean wait %.0fs\n",
		res.Sched.Placements, res.Sched.Deferrals, res.Sched.MigrationsTotal(),
		res.Jobs.Completed, res.Jobs.Submitted, res.Jobs.MeanWaitS)
	return nil
}
