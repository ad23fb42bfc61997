package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tesla/internal/control"
	"tesla/internal/controlplane"
	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/modbus"
	"tesla/internal/scheduler"
	"tesla/internal/store"
	"tesla/internal/telemetry"
)

// expositionProblems checks a Prometheus text exposition: every sample's
// family carries exactly one # TYPE line, placed before its first sample,
// and the family's samples form one contiguous group.
func expositionProblems(body string) []string {
	var problems []string
	typed, sampled := map[string]bool{}, map[string]bool{}
	last := ""
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			switch {
			case typed[name]:
				problems = append(problems, name+": typed twice")
			case sampled[name]:
				problems = append(problems, name+": typed after its first sample")
			}
			typed[name] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		switch {
		case !typed[name] && !sampled[name]:
			problems = append(problems, name+": sample without a # TYPE")
		case sampled[name] && last != name:
			problems = append(problems, name+": samples split into separate groups")
		}
		sampled[name], last = true, name
	}
	return problems
}

// samples is the exposition's sample lines in sorted order: the names and
// values served, independent of how they are grouped.
func samples(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	slices.Sort(out)
	return out
}

func serve(h http.HandlerFunc) string {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// testSingleRoomDaemon fabricates a single-room daemon with every optional
// /metrics block on: a durable store, a field-bus gateway that has written
// one set-point, an ingest service and the safety event log.
func testSingleRoomDaemon(t *testing.T) *daemon {
	t.Helper()
	bank := modbus.NewMapBank()
	bank.SetHolding(modbus.RegSetpoint, modbus.EncodeTempC(23))
	srv := modbus.NewServer(bank)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	gw := gateway.New(gateway.Config{Timeout: time.Second})
	t.Cleanup(func() { gw.Close() })
	dev, err := gw.Add("acu-0", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(24)); err != nil {
		t.Fatal(err)
	}
	svc := ingest.NewService(ingest.Config{DB: telemetry.NewDB(), GatherEvery: time.Hour})
	events := telemetry.NewEventLog(4)
	events.Append(telemetry.Entry{Kind: "escalation", Detail: "room-0: stale telemetry"})
	events.Append(telemetry.Entry{Kind: "override", Detail: "room-0: clamp"})

	d := newDaemon([]string{"room-0"}, nil, events)
	d.gw, d.ing = gw, svc
	d.update(0, func(rs *roomStatus) {
		rs.StepMinutes, rs.SetpointC, rs.InletC, rs.MaxColdC = 42, 23.5, 21.25, 22.125
		rs.ACUPowerKW, rs.EnergyKWh, rs.Violations, rs.Interruptions = 3.5, 12.75, 2, 1
		rs.SafetyLevel, rs.SafetyEscalations, rs.PolicyOverrides = "backstop", 3, 4
		rs.QuarantinedSensors, rs.PolicyHistoryFallbacks, rs.PolicyOptimizerFallbacks = 1, 5, 6
		rs.Durability = durStatus{Enabled: true, RecoveredSteps: 7, ReplayMism: 0, SnapshotStep: 40,
			Stats: store.Stats{Records: 49, Bytes: 12345, Syncs: 3, Segments: 1, Snapshots: 2, LastBytes: 678}}
	})
	return d
}

// fillRooms gives every room distinct non-zero readings, so a golden
// comparison sees each per-room value.
func fillRooms(d *daemon) *daemon {
	for i := range d.rooms {
		f := float64(i + 1)
		d.update(i, func(rs *roomStatus) {
			rs.StepMinutes, rs.SetpointC, rs.MaxColdC, rs.SafetyLevel = 10+i, 22+f/4, 21+f/8, "hold-last-safe"
			rs.ACUDuty, rs.ITPowerKW, rs.EnergyKWh = f/10, 30*f, 1.5*f
		})
	}
	return d
}

// testControlPlaneMetrics boots a coordinator and one field-bus shard whose
// heartbeats carry ingest and scheduler ledgers, waits until the
// coordinator's view holds every optional block, and returns both /metrics
// bodies.
func testControlPlaneMetrics(t *testing.T) (coordBody, shardBody string) {
	t.Helper()
	fcfg := fleet.DefaultConfig(2, 7, func(room int, seed uint64) (control.Policy, error) {
		return control.Fixed{SetpointC: 23}, nil
	})
	fcfg.WarmupS, fcfg.EvalS = 600, 3600
	rpc := controlplane.ClientOptions{Retries: 2, BackoffMin: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond, Timeout: 5 * time.Second}
	coord, err := controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		Fleet: fcfg, SuspectAfter: 40 * time.Millisecond, DeadAfter: 90 * time.Millisecond,
		ReconcileEvery: 10 * time.Millisecond, RPC: rpc,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord.Handler())
	t.Cleanup(coordSrv.Close)
	coord.Start()
	t.Cleanup(coord.Stop)
	sh, err := controlplane.NewShard(controlplane.ShardConfig{
		ID: "shard-a", Fleet: fcfg, DataDir: t.TempDir(), StepDelay: 5 * time.Millisecond,
		Coordinator: coordSrv.URL, HeartbeatEvery: 10 * time.Millisecond, RPC: rpc, FieldBus: true,
		IngestStats: func() ingest.Stats { return ingest.Stats{Inputs: 1} },
		SchedCounters: func() scheduler.Counters {
			return scheduler.Counters{Placements: 2, Migrations: map[string]uint64{scheduler.ReasonThermal: 1}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	shardSrv := httptest.NewServer(sh.Handler())
	t.Cleanup(shardSrv.Close)
	sh.SetAdvertise(shardSrv.URL)
	sh.Start()
	t.Cleanup(sh.Stop)

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		v := coord.Fleet()
		if v.Gateway != nil && v.Field != nil && v.Ingest != nil && v.Sched != nil && len(v.Shards) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator view never filled every block: %+v", v)
		}
	}
	get := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	return get(coordSrv.URL), get(shardSrv.URL)
}

// TestMetricsExposition parses /metrics of every teslad mode, the
// coordinator and a shard. The fabricated modes must serve exactly the
// sample lines of their golden (testdata/metrics_<mode>.txt, captured
// before the per-room families were typed and grouped); the single room's
// body must equal its golden byte for byte.
func TestMetricsExposition(t *testing.T) {
	coordBody, shardBody := testControlPlaneMetrics(t)
	single := testSingleRoomDaemon(t)
	sched := testSchedDaemon()
	fillRooms(sched.daemon)
	for _, tc := range []struct {
		mode  string
		body  string
		check string // "exact", "samples", or "" for no golden
	}{
		{"single", serve(single.handleMetrics), "exact"},
		{"rooms", serve(fillRooms(testFleetDaemon(t)).handleFleetMetrics), "samples"},
		{"scheduler", serve(sched.handleMetrics), "samples"},
		{"coordinator", coordBody, ""},
		{"shard", shardBody, ""},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			for _, p := range expositionProblems(tc.body) {
				t.Error(p)
			}
			if tc.check == "" {
				return
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "metrics_"+tc.mode+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.check == "exact" && tc.body != string(golden) {
				t.Errorf("body differs from golden:\n%s\nwant:\n%s", tc.body, golden)
			}
			if got, want := samples(tc.body), samples(string(golden)); !slices.Equal(got, want) {
				t.Errorf("samples differ from golden:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

func TestExpositionProblems(t *testing.T) {
	for body, want := range map[string]int{
		"# TYPE a gauge\na 1\n# TYPE b counter\nb{x=\"1\"} 2\nb{x=\"2\"} 3\n": 0,
		"a 1\n":                                 1, // untyped
		"# TYPE a gauge\n# TYPE a gauge\na 1\n": 1, // typed twice
		"a 1\n# TYPE a gauge\n":                 2, // untyped, then typed late
		"# TYPE a gauge\n# TYPE b gauge\na{r=\"0\"} 1\nb{r=\"0\"} 1\na{r=\"1\"} 2\n": 1, // split
	} {
		if got := expositionProblems(body); len(got) != want {
			t.Errorf("%q: problems %q, want %d", body, got, want)
		}
	}
}
