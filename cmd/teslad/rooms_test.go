package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tesla/internal/fleet"
	"tesla/internal/modbus"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// testFleetDaemon fabricates a 3-room fleet daemon with two ingested rooms
// and a telemetry queue that has already evicted samples.
func testFleetDaemon(t *testing.T) *daemon {
	t.Helper()
	queues := []*telemetry.Queue{telemetry.NewQueue(4), telemetry.NewQueue(16), telemetry.NewQueue(16)}
	ing := telemetry.NewIngestor(queues, coldLimitC, 60, 0)
	events := telemetry.NewEventLog(2)
	fd := newDaemon([]string{"room-0", "room-1", "room-2"}, ing, events)

	// Room 0 laps its tiny queue; room 1 stays lossless.
	for i := uint64(0); i < 10; i++ {
		queues[0].Push(telemetry.RoomSample{Room: 0, Seq: i, S: testbed.Sample{TimeS: float64(i) * 60, MaxColdAisle: 21, ACUPowerKW: 2}})
	}
	queues[1].Push(telemetry.RoomSample{Room: 1, Seq: 0, Level: 2, S: testbed.Sample{MaxColdAisle: 22.6, ACUPowerKW: 3}})
	ing.DrainOnce()

	for i := 0; i < 5; i++ {
		events.Append(telemetry.Entry{Kind: "escalation", Detail: "room-1: stale telemetry"})
	}
	return fd
}

func TestFleetEndpointServesRollupAndRooms(t *testing.T) {
	fd := testFleetDaemon(t)
	rec := httptest.NewRecorder()
	fd.handleFleet(rec, httptest.NewRequest("GET", "/fleet", nil))
	var out struct {
		Rollup telemetry.Rollup    `json:"rollup"`
		Rooms  []roomStatus        `json:"rooms"`
		Aggs   []telemetry.RoomAgg `json:"room_aggs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /fleet body: %v", err)
	}
	if out.Rollup.Samples != 5 || out.Rollup.Dropped != 6 {
		t.Fatalf("rollup = %+v, want 5 ingested / 6 dropped", out.Rollup)
	}
	if len(out.Rooms) != 3 || out.Rooms[1].Name != "room-1" {
		t.Fatalf("rooms = %+v", out.Rooms)
	}
	if len(out.Aggs) != 3 || out.Aggs[0].Samples != 4 {
		t.Fatalf("room aggs = %+v", out.Aggs)
	}
}

func TestRoomEndpointRoutesAndRejects(t *testing.T) {
	fd := testFleetDaemon(t)
	rec := httptest.NewRecorder()
	fd.handleRoom(rec, httptest.NewRequest("GET", "/rooms/1", nil))
	if rec.Code != 200 {
		t.Fatalf("/rooms/1 -> %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Name     string            `json:"name"`
		Ingested telemetry.RoomAgg `json:"ingested"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /rooms/1 body: %v", err)
	}
	if out.Name != "room-1" || out.Ingested.LastLevel != 2 {
		t.Fatalf("room 1 = %+v", out)
	}

	rec = httptest.NewRecorder()
	fd.handleRoom(rec, httptest.NewRequest("GET", "/rooms/7", nil))
	if rec.Code != 404 {
		t.Fatalf("/rooms/7 -> %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	fd.handleRoom(rec, httptest.NewRequest("GET", "/rooms/xyz", nil))
	if rec.Code != 400 {
		t.Fatalf("/rooms/xyz -> %d, want 400", rec.Code)
	}
}

func TestFleetHealthzWaitsForEveryRoom(t *testing.T) {
	fd := testFleetDaemon(t)
	probe := func() int {
		rec := httptest.NewRecorder()
		fd.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if probe() != 503 {
		t.Fatal("fleet with zero published rooms must be unready")
	}
	for i := 0; i < 2; i++ {
		fd.update(i, func(rs *roomStatus) { rs.StepMinutes = 1 })
	}
	if probe() != 503 {
		t.Fatal("fleet must stay unready until the last room publishes")
	}
	fd.update(2, func(rs *roomStatus) { rs.StepMinutes = 1 })
	if probe() != 200 {
		t.Fatal("fully published fleet must be ready")
	}
}

func TestSingleRoomHealthz(t *testing.T) {
	d := newDaemon([]string{"room-0"}, nil, nil)
	rec := httptest.NewRecorder()
	d.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("pre-first-step healthz -> %d, want 503", rec.Code)
	}
	d.update(0, func(st *roomStatus) { st.StepMinutes = 1 })
	rec = httptest.NewRecorder()
	d.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("post-first-step healthz -> %d, want 200", rec.Code)
	}
}

func TestFleetMetricsExposeLossCounters(t *testing.T) {
	fd := testFleetDaemon(t)
	rec := httptest.NewRecorder()
	fd.handleFleetMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"tesla_fleet_rooms 3",
		"tesla_fleet_samples_ingested_total 5",
		"tesla_fleet_samples_dropped_total 6",
		"tesla_fleet_seq_gaps_total 6",
		"tesla_events_dropped_total 3",
		`tesla_safety_events_total{kind="escalation"} 5`,
		`tesla_room_step_minutes{room="room-2"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// mustParse parses teslad flags for an in-process run on an ephemeral port.
func mustParse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseFlags(append([]string{"-listen", "127.0.0.1:0"}, args...))
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return o
}

// TestRunFleetHonoursPolicy runs `teslad -rooms 2 -policy fixed` end to end.
// Fleet mode used to ignore -policy and train and run TESLA in every room;
// the fixed controller must hold 23 °C in each room, with no supervisor
// override needed, and boot without training.
func TestRunFleetHonoursPolicy(t *testing.T) {
	const minutes = 10
	rooms, err := runRooms(context.Background(), mustParse(t, "-rooms", "2", "-minutes", "10", "-policy", "fixed"))
	if err != nil {
		t.Fatalf("runRooms: %v", err)
	}
	if len(rooms) != 2 {
		t.Fatalf("got %d rooms, want 2", len(rooms))
	}
	for _, rs := range rooms {
		if rs.Steps != minutes || rs.MeanSp != 23 || rs.Overrides != 0 {
			t.Fatalf("room %s: %d steps, mean set-point %g °C, %d overrides; want %d steps at 23 °C, no overrides",
				rs.Name, rs.Steps, rs.MeanSp, rs.Overrides, minutes)
		}
	}
	if _, err := runRooms(context.Background(), mustParse(t, "-rooms", "2", "-minutes", "10", "-policy", "bogus")); err == nil {
		t.Fatal("unknown -policy must be rejected in fleet mode")
	}
}

// TestStandaloneMatchesFleetRun: every room teslad steps lands on the
// trajectory fleet.Run computes for the same fleet.Config — in fleet mode
// with and without -datadir, and on the single room's wire path against a
// fleet of one quantized to the set-point register's centidegrees.
func TestStandaloneMatchesFleetRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		durable bool
	}{
		{"rooms", []string{"-rooms", "3"}, false},
		{"rooms-datadir", []string{"-rooms", "3"}, true},
		{"wire", nil, false},
		{"wire-datadir", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-minutes", "25", "-seed", "5", "-policy", "modelfree"}, tc.args...)
			if tc.durable {
				args = append(args, "-datadir", t.TempDir(), "-checkpoint", "7")
			}
			o := mustParse(t, args...)
			got, err := runRooms(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := fleetConfig(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Rooms) == 1 {
				ref.Quantize = modbus.QuantizeTempC
			}
			if tc.durable {
				ref.DataDir = t.TempDir()
			}
			want, err := fleet.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want.Rooms) {
				t.Fatalf("teslad ran %d rooms, fleet.Run %d", len(got), len(want.Rooms))
			}
			for i, w := range want.Rooms {
				if got[i].TrajectoryHash != w.TrajectoryHash || got[i].CEkWh != w.CEkWh || got[i].Steps != w.Steps {
					t.Errorf("room %d: teslad hash %#x, %.9f kWh over %d steps; fleet.Run %#x, %.9f kWh over %d",
						i, got[i].TrajectoryHash, got[i].CEkWh, got[i].Steps, w.TrajectoryHash, w.CEkWh, w.Steps)
				}
			}
		})
	}
}

// TestStandaloneRestartContinuity interrupts the standalone daemon at step
// 13 of every room, restarts it on the same -datadir, and requires each
// room to finish on the trajectory of a run that never stopped — with a
// checkpointing policy (modelfree) and one that recovers by full replay
// (fixed), on the wire path and in fleet mode.
func TestStandaloneRestartContinuity(t *testing.T) {
	const stopAt = 13
	for _, rooms := range []string{"1", "3"} {
		for _, policy := range []string{"modelfree", "fixed"} {
			t.Run("rooms"+rooms+"-"+policy, func(t *testing.T) {
				base := []string{"-rooms", rooms, "-minutes", "30", "-seed", "9", "-policy", policy}
				ref, err := runRooms(context.Background(), mustParse(t, base...))
				if err != nil {
					t.Fatal(err)
				}

				durable := append(base, "-datadir", t.TempDir(), "-checkpoint", "4")
				o := mustParse(t, durable...)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Every room waits at stopAt for its siblings, so each one is
				// interrupted at the same step boundary.
				var reached sync.WaitGroup
				reached.Add(len(ref))
				o.stepHook = func(_, step int) {
					if step == stopAt {
						reached.Done()
						reached.Wait()
						cancel()
					}
				}
				first, err := runRooms(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range first {
					if res.Steps != 0 {
						t.Fatalf("room %d finished %d steps; the interrupted run must drain it", i, res.Steps)
					}
				}

				got, err := runRooms(context.Background(), mustParse(t, durable...))
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					rec := got[i].Recovery
					if !rec.Recovered || rec.StepRecords != stopAt {
						t.Errorf("room %d recovered %d steps (recovered=%v), want %d", i, rec.StepRecords, rec.Recovered, stopAt)
					}
					if got[i].TrajectoryHash != ref[i].TrajectoryHash || got[i].CEkWh != ref[i].CEkWh {
						t.Errorf("room %d: restarted hash %#x, %.9f kWh; uninterrupted %#x, %.9f kWh",
							i, got[i].TrajectoryHash, got[i].CEkWh, ref[i].TrajectoryHash, ref[i].CEkWh)
					}
				}
			})
		}
	}
}
