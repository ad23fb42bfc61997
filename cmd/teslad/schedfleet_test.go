package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"tesla/internal/experiment"
	"tesla/internal/scheduler"
)

func TestPolicyFactoryColdPoliciesBootWithoutTraining(t *testing.T) {
	train := func() (*experiment.Artifacts, error) {
		t.Fatal("a training-free policy asked for trained models")
		return nil, nil
	}
	for _, name := range []string{"fixed", "modelfree"} {
		factory, err := experiment.PolicyFactory(name, train)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := factory(0, 42); err != nil {
			t.Fatalf("%s: building room policy: %v", name, err)
		}
	}
	if _, err := experiment.PolicyFactory("nope", train); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
}

// testSchedDaemon fabricates a published scheduled-fleet snapshot.
func testSchedDaemon() *schedDaemon {
	sd := &schedDaemon{daemon: newDaemon([]string{"room-0", "room-1"}, nil, nil), mode: "full"}
	sd.rooms[0].StepMinutes, sd.rooms[1].StepMinutes = 7, 7
	sd.sched = scheduler.Counters{
		Placements: 4, Deferrals: 2, Waiting: 1, RunningJobs: 2, CompletedJobs: 1,
		Migrations: map[string]uint64{scheduler.ReasonThermal: 1},
		RoomQueue:  map[string]int{"room-0": 2},
	}
	sd.jobs = scheduler.JobStats{Submitted: 5, Completed: 1, MeanWaitS: 120}
	sd.rooms[0].MaxColdC = 21.4
	sd.rooms[0].QueueDepth = 2
	sd.rooms[1].MaxColdC = 22.3
	return sd
}

func TestSchedFleetEndpointServesCountersAndRooms(t *testing.T) {
	sd := testSchedDaemon()
	rec := httptest.NewRecorder()
	sd.handleFleet(rec, httptest.NewRequest("GET", "/fleet", nil))
	var out struct {
		Mode  string             `json:"scheduler_mode"`
		Rooms []roomStatus       `json:"rooms"`
		Sched scheduler.Counters `json:"sched"`
		Jobs  scheduler.JobStats `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /fleet body: %v", err)
	}
	if out.Mode != "full" || len(out.Rooms) != 2 {
		t.Fatalf("fleet view = %+v", out)
	}
	if out.Sched.Placements != 4 || out.Sched.Migrations[scheduler.ReasonThermal] != 1 {
		t.Fatalf("sched counters = %+v", out.Sched)
	}
	if out.Jobs.Submitted != 5 || out.Rooms[0].QueueDepth != 2 {
		t.Fatalf("jobs/queue = %+v / %+v", out.Jobs, out.Rooms[0])
	}
}

func TestSchedFleetMetricsExposeSchedulerCounters(t *testing.T) {
	sd := testSchedDaemon()
	rec := httptest.NewRecorder()
	sd.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"tesla_sched_step_minutes 7",
		"tesla_sched_placements_total 4",
		"tesla_sched_deferrals_total 2",
		`tesla_sched_migrations_total{reason="thermal"} 1`,
		`tesla_sched_migrations_total{reason="capacity"} 0`,
		"tesla_sched_waiting_jobs 1",
		"tesla_sched_running_jobs 2",
		`tesla_sched_room_queue_depth{room="room-0"} 2`,
		`tesla_sched_room_queue_depth{room="room-1"} 0`,
		`tesla_room_max_cold_aisle_celsius{room="room-1"} 22.3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestSchedFleetHealthzWaitsForFirstBarrier(t *testing.T) {
	sd := &schedDaemon{daemon: newDaemon([]string{"room-0"}, nil, nil), mode: "defer"}
	rec := httptest.NewRecorder()
	sd.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("pre-first-barrier healthz -> %d, want 503", rec.Code)
	}
	sd.update(0, func(rs *roomStatus) { rs.StepMinutes = 1 })
	rec = httptest.NewRecorder()
	sd.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("post-first-barrier healthz -> %d, want 200", rec.Code)
	}
}

// TestRunSchedFleetCompletes runs the whole -scheduler mode end to end on a
// tiny horizon with the training-free policy: warm-up, lockstep stepping with
// scheduler barriers, operator endpoints bound, clean summary.
func TestRunSchedFleetCompletes(t *testing.T) {
	err := run(context.Background(), mustParse(t, "-rooms", "2", "-minutes", "3", "-seed", "77", "-policy", "fixed", "-scheduler", "full"))
	if err != nil {
		t.Fatalf("runSchedFleet: %v", err)
	}
}

func TestRunSchedFleetRejectsBadFlags(t *testing.T) {
	runArgs := func(args ...string) error {
		o, err := parseFlags(append([]string{"-listen", "127.0.0.1:0", "-rooms", "2", "-seed", "77", "-policy", "fixed"}, args...))
		if err != nil {
			return err
		}
		return run(context.Background(), o)
	}
	if err := runArgs("-minutes", "0", "-scheduler", "full"); err == nil {
		t.Fatal("minutes 0 must be rejected")
	}
	if err := runArgs("-minutes", "3", "-scheduler", "bogus"); err == nil {
		t.Fatal("bad scheduler mode must be rejected")
	}
	if err := runArgs("-minutes", "3", "-scheduler", "full", "-datadir", t.TempDir()); err == nil {
		t.Fatal("-datadir must be rejected in scheduler mode")
	}
}
