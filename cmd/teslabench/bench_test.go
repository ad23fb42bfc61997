package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBenchHarnesses runs every -bench harness at CI size through the
// envelope writer, checks the BENCH_<name>.json it leaves, and checks that
// the harness's own correctness check still rejects a broken run.
func TestBenchHarnesses(t *testing.T) {
	ingestCfg := ingestBenchConfig{
		AppendSamples: 500_000, MinAppendPerSec: 1e6,
		WireBatches: 200, WireBatchLines: 512, SubscribeRecords: 20_000,
	}
	if raceEnabled {
		// The race detector slows the append loop well below any
		// production floor; the ledgers are still checked.
		ingestCfg.MinAppendPerSec = 0
	}
	cpCfg := cpBenchConfig{Rooms: 4, Trials: 1, Seed: 29}

	for _, tc := range []struct {
		b benchmark
		// check inspects the rows of a good run and derives a broken run
		// from them, which the harness's check must reject.
		check func(t *testing.T, rows any)
	}{
		{bind("fleet", fleetBenchConfig{Rooms: []int{1, 4}, Workers: []int{1, 2}, StepsPerRoom: 20, Seed: 13}, runFleetBench),
			func(t *testing.T, rows any) {
				for _, r := range rows.([]fleetBenchRow) {
					if r.Steps != r.Rooms*20 || r.StepsPerSec <= 0 || r.P99Ns <= 0 {
						t.Errorf("row %+v: want %d steps and a throughput and latency", r, r.Rooms*20)
					}
				}
			}},
		{bind("gateway", gatewayBenchConfig{Devices: []int{64}, Windows: []int{4}, OpsPerGenerator: 5}, runGatewayBench),
			func(t *testing.T, rows any) {
				r := rows.([]gatewayBenchRow)[0]
				r.Dropped++
				if r.ledger() == nil {
					t.Error("gateway ledger accepted an attempt counted twice")
				}
			}},
		{bind("ingest", ingestCfg, runIngestBench),
			func(t *testing.T, rows any) {
				app := rows.([]any)[0].(ingestAppendRow)
				if !app.LedgersOK {
					t.Error("append row does not carry ledgers_ok")
				}
				app.Ingested--
				if app.ledger() == nil {
					t.Error("ingest ledger accepted a lost sample")
				}
			}},
		{bind("controlplane", cpCfg, runControlplaneBench),
			func(t *testing.T, rows any) {
				if n := len(rows.([]cpBenchRow)); n != 4 {
					t.Errorf("%d rows, want failover and migration on both buses", n)
				}
				// A trial whose rooms diverge from the reference must fail.
				fcfg := cpBenchFleetCfg(cpCfg.Rooms, cpCfg.Seed)
				want, err := cpReference(fcfg)
				if err != nil {
					t.Fatal(err)
				}
				want[0]++
				if _, _, err := migrationTrial(fcfg, false, want); err == nil {
					t.Error("migration trial accepted a diverged trajectory hash")
				}
			}},
		{bind("scheduler", schedBenchConfig{Rooms: []int{3}, StepsPerRoom: 20, Seed: 13}, runSchedBench),
			func(t *testing.T, rows any) {
				bad := append([]schedBenchRow(nil), rows.([]schedBenchRow)...)
				var none float64
				for i, r := range bad {
					switch r.Mode {
					case "none":
						none = r.JointScore
					case "full":
						bad[i].JointScore = none * 1.01
					}
				}
				if schedJointCheck(bad) == nil {
					t.Error("scheduler gate accepted full scoring worse than none")
				}
			}},
	} {
		t.Run(tc.b.name, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			rows, err := runBench(&out, dir, tc.b)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+tc.b.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				envelope
				Config map[string]any   `json:"config"`
				Rows   []map[string]any `json:"rows"`
			}
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("BENCH_%s.json: %v", tc.b.name, err)
			}
			if _, err := time.Parse(time.RFC3339, env.Generated); err != nil || env.Bench != tc.b.name {
				t.Errorf("bench %q generated %q", env.Bench, env.Generated)
			}
			if h := env.Host; h.CPU == "" || h.NProc < 1 || h.GOMAXPROCS < 1 || h.Go == "" || env.Commit == "" {
				t.Errorf("host %+v commit %q", h, env.Commit)
			}
			if len(env.Config) == 0 || len(env.Rows) == 0 {
				t.Errorf("config %v, %d rows", env.Config, len(env.Rows))
			}
			tc.check(t, rows)
		})
	}
}

func TestSelectBenchmarks(t *testing.T) {
	if sel, err := selectBenchmarks("all"); err != nil || len(sel) != len(benchmarks) {
		t.Fatalf("all: %d, %v", len(sel), err)
	}
	sel, err := selectBenchmarks("scheduler, fleet")
	if err != nil || len(sel) != 2 || sel[0].name != "scheduler" || sel[1].name != "fleet" {
		t.Fatalf("scheduler, fleet: %v", err)
	}
	for _, bad := range []string{"", "bo", "wal", "fleet,nope"} {
		if _, err := selectBenchmarks(bad); err == nil {
			t.Errorf("selectBenchmarks(%q) accepted", bad)
		}
	}
}
