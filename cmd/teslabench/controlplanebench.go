package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"time"

	"tesla/internal/control"
	"tesla/internal/controlplane"
	"tesla/internal/dataset"
	"tesla/internal/fleet"
	"tesla/internal/modbus"
)

// cpIntegratorPolicy is a cheap stateful Durable policy for the control-plane
// sweep: every decision folds the whole observed history into an integral
// term, so any failover or migration that is not bit-identical shows up as a
// diverged trajectory hash.
type cpIntegratorPolicy struct {
	bias float64
	acc  float64
	n    int
}

func newCPBenchPolicy(room int, seed uint64) (control.Policy, error) {
	return &cpIntegratorPolicy{bias: 22.9 + float64(seed%32)/96}, nil
}

func (p *cpIntegratorPolicy) Name() string { return "cp-bench-integrator" }

func (p *cpIntegratorPolicy) Decide(tr *dataset.Trace, t int) float64 {
	p.acc += tr.MaxCold[t] - 21.5
	p.n++
	return p.bias - 0.002*p.acc/float64(p.n)*10
}

type cpIntegratorState struct {
	Acc float64
	N   int
}

func (p *cpIntegratorPolicy) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cpIntegratorState{p.acc, p.n}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (p *cpIntegratorPolicy) Restore(blob []byte) error {
	var st cpIntegratorState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return err
	}
	p.acc, p.n = st.Acc, st.N
	return nil
}

// cpDeadAfter is how long the coordinator waits on a silent shard before
// re-placing its rooms; it bounds failover latency from below. cpStepDelay
// paces every room so the chaos lands while rooms are still in flight.
const (
	cpDeadAfter = 90 * time.Millisecond
	cpStepDelay = 3 * time.Millisecond
)

// cpBenchFleetCfg is the sweep's fleet: n rooms, 30 warm-up + 60 evaluated
// steps, checkpoint every 8 — the same CI-friendly horizon the control-plane
// chaos tests use.
func cpBenchFleetCfg(n int, seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig(n, seed, newCPBenchPolicy)
	cfg.WarmupS = 1800
	cfg.EvalS = 3600
	cfg.SnapshotEvery = 8
	return cfg
}

// cpCluster is an in-process coordinator + shards wired over loopback HTTP —
// the same deployment shape as `teslad -role coordinator|shard`, minus the
// process boundary, so the sweep measures control-plane latencies rather
// than exec overhead.
type cpCluster struct {
	coord    *controlplane.Coordinator
	coordSrv *httptest.Server
	shards   map[string]*controlplane.Shard
	srvs     map[string]*httptest.Server
}

func startCPCluster(fcfg fleet.Config, roots map[string]string, fieldBus bool) (*cpCluster, error) {
	rpc := controlplane.ClientOptions{Retries: 2, BackoffMin: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond, Timeout: 5 * time.Second}
	coord, err := controlplane.NewCoordinator(controlplane.CoordinatorConfig{
		Fleet:          fcfg,
		SuspectAfter:   40 * time.Millisecond,
		DeadAfter:      cpDeadAfter,
		ReconcileEvery: 10 * time.Millisecond,
		RPC:            rpc,
	})
	if err != nil {
		return nil, err
	}
	cl := &cpCluster{coord: coord, shards: map[string]*controlplane.Shard{}, srvs: map[string]*httptest.Server{}}
	cl.coordSrv = httptest.NewServer(coord.Handler())
	coord.Start()
	for id, dir := range roots {
		sh, err := controlplane.NewShard(controlplane.ShardConfig{
			ID:             id,
			Fleet:          fcfg,
			DataDir:        dir,
			StepDelay:      cpStepDelay,
			Coordinator:    cl.coordSrv.URL,
			HeartbeatEvery: 10 * time.Millisecond,
			RPC:            rpc,
			FieldBus:       fieldBus,
		})
		if err != nil {
			cl.stop()
			return nil, err
		}
		srv := httptest.NewServer(sh.Handler())
		sh.SetAdvertise(srv.URL)
		sh.Start()
		cl.shards[id] = sh
		cl.srvs[id] = srv
	}
	return cl, nil
}

func (cl *cpCluster) stop() {
	cl.coord.Stop()
	for _, sh := range cl.shards {
		sh.Stop()
	}
	cl.coordSrv.Close()
	for _, srv := range cl.srvs {
		srv.Close()
	}
}

// waitFleet polls the coordinator's fleet view until cond holds.
func (cl *cpCluster) waitFleet(timeout time.Duration, what string, cond func(controlplane.FleetView) bool) (controlplane.FleetView, error) {
	deadline := time.Now().Add(timeout)
	for {
		v := cl.coord.Fleet()
		if cond(v) {
			return v, nil
		}
		if time.Now().After(deadline) {
			dump, _ := json.Marshal(v)
			return v, fmt.Errorf("timed out waiting for %s; fleet view: %s", what, dump)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// verifyCPHashes compares every finished room against the uninterrupted
// single-process reference; a mismatch fails the whole sweep — a bench that
// measures a broken failover fast is worse than no bench.
func verifyCPHashes(v controlplane.FleetView, want map[int]uint64) (int, error) {
	checked := 0
	for _, p := range v.Placements {
		if !p.Done || p.Result == nil {
			return checked, fmt.Errorf("room %d not done in final view", p.Room)
		}
		if p.Result.TrajectoryHash != want[p.Room] {
			return checked, fmt.Errorf("room %d: trajectory hash %#x differs from uninterrupted reference %#x",
				p.Room, p.Result.TrajectoryHash, want[p.Room])
		}
		checked++
	}
	return checked, nil
}

// cpBenchConfig sizes the control-plane chaos sweep. Every run sweeps both
// the in-process shards and shards actuating over their own Modbus bus.
type cpBenchConfig struct {
	Rooms  int    `json:"rooms"`
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
}

var defaultCPBench = cpBenchConfig{Rooms: 4, Trials: 5, Seed: 29}

// cpBenchRow is one latency distribution of the sweep: shard-kill failover
// (kill → every room re-placed) or live-migration pause, per bus.
type cpBenchRow struct {
	Bus        string    `json:"bus"`
	Event      string    `json:"event"`
	SamplesMs  []float64 `json:"samples_ms"`
	HashChecks int       `json:"trajectory_hash_checks"`
	latencyCols
}

// failoverTrial boots a two-shard shared-root cluster, kills the loaded
// shard mid-flight and measures kill → every one of its rooms re-placed on
// the survivor. Returns the failover time and the number of hash checks.
func failoverTrial(fcfg fleet.Config, fieldBus bool, want map[int]uint64) (float64, int, error) {
	dirA, err := os.MkdirTemp("", "cpbench-shared")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dirA)
	cl, err := startCPCluster(fcfg, map[string]string{"worker-a": dirA, "worker-b": dirA}, fieldBus)
	if err != nil {
		return 0, 0, err
	}
	defer cl.stop()

	// Rooms placed and visibly stepping before the chaos starts.
	_, err = cl.waitFleet(30*time.Second, "initial placement + progress", func(v controlplane.FleetView) bool {
		if v.Placed+v.Done != v.Rooms {
			return false
		}
		for _, p := range v.Placements {
			if !p.Done && p.Step == 0 {
				return false
			}
		}
		return true
	})
	if err != nil {
		return 0, 0, err
	}

	// Kill whichever shard holds the most rooms.
	v := cl.coord.Fleet()
	load := map[string]int{}
	for _, p := range v.Placements {
		if !p.Done {
			load[p.Shard]++
		}
	}
	victim := ""
	for id, n := range load {
		if victim == "" || n > load[victim] {
			victim = id
		}
	}
	if victim == "" {
		return 0, 0, fmt.Errorf("fleet finished before the kill — raise StepDelay or the horizon")
	}
	t0 := time.Now()
	cl.shards[victim].Kill()
	_, err = cl.waitFleet(30*time.Second, "failover re-placement", func(v controlplane.FleetView) bool {
		for _, p := range v.Placements {
			if !p.Done && p.Shard == victim {
				return false
			}
			if !p.Done && p.Shard == "" {
				return false
			}
		}
		return true
	})
	if err != nil {
		return 0, 0, err
	}
	failoverMs := float64(time.Since(t0)) / float64(time.Millisecond)

	final, err := cl.waitFleet(60*time.Second, "fleet completion", func(v controlplane.FleetView) bool { return v.Done == v.Rooms })
	if err != nil {
		return 0, 0, err
	}
	checks, err := verifyCPHashes(final, want)
	return failoverMs, checks, err
}

// migrationTrial boots a two-shard distinct-root cluster and live-migrates
// one in-flight room to the other shard, recording the control-plane pause
// (drain barrier → stepping on the target).
func migrationTrial(fcfg fleet.Config, fieldBus bool, want map[int]uint64) (float64, int, error) {
	dirA, err := os.MkdirTemp("", "cpbench-a")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "cpbench-b")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dirB)
	cl, err := startCPCluster(fcfg, map[string]string{"worker-a": dirA, "worker-b": dirB}, fieldBus)
	if err != nil {
		return 0, 0, err
	}
	defer cl.stop()

	v, err := cl.waitFleet(30*time.Second, "initial placement + progress", func(v controlplane.FleetView) bool {
		if v.Placed+v.Done != v.Rooms {
			return false
		}
		for _, p := range v.Placements {
			if !p.Done && p.Step == 0 {
				return false
			}
		}
		return true
	})
	if err != nil {
		return 0, 0, err
	}
	room, target := -1, ""
	for _, p := range v.Placements {
		if p.Done {
			continue
		}
		if p.Shard == "worker-a" {
			room, target = p.Room, "worker-b"
		} else if p.Shard == "worker-b" {
			room, target = p.Room, "worker-a"
		}
		if room >= 0 {
			break
		}
	}
	if room < 0 {
		return 0, 0, fmt.Errorf("fleet finished before the migration — raise StepDelay or the horizon")
	}
	rep, err := cl.coord.Migrate(context.Background(), room, target)
	if err != nil {
		return 0, 0, fmt.Errorf("migrating room %d to %s: %w", room, target, err)
	}

	final, err := cl.waitFleet(60*time.Second, "fleet completion", func(v controlplane.FleetView) bool { return v.Done == v.Rooms })
	if err != nil {
		return 0, 0, err
	}
	if fieldBus {
		// Both shards stay alive, so the merged field ledger must be exact:
		// one polled sample per evaluated step per room, zero gaps — the
		// migration bundle's seq hand-off accounted every number once.
		steps := int(fcfg.EvalS/fcfg.Testbed.SamplePeriodS) * final.Rooms
		if final.Field == nil || int(final.Field.Samples) != steps || final.Field.Gaps != 0 {
			return 0, 0, fmt.Errorf("field ledger not exact after migration (want %d samples, 0 gaps): %+v", steps, final.Field)
		}
	}
	checks, err := verifyCPHashes(final, want)
	return rep.PauseMs, checks, err
}

// cpReference runs fcfg uninterrupted in one process and returns every
// room's trajectory hash, the reference each trial must reproduce.
func cpReference(fcfg fleet.Config) (map[int]uint64, error) {
	ref, err := fleet.Run(fcfg)
	if err != nil {
		return nil, err
	}
	want := make(map[int]uint64, len(ref.Rooms))
	for _, r := range ref.Rooms {
		want[r.Room] = r.TrajectoryHash
	}
	return want, nil
}

// runControlplaneBench sweeps the sharded control plane under chaos, once
// in process and once over per-shard Modbus field buses: per trial, one
// shard-kill failover (shared durable root) and one live migration
// (distinct roots), each verified bit-identical against the uninterrupted
// reference before its latency counts.
func runControlplaneBench(w io.Writer, c cpBenchConfig) ([]cpBenchRow, error) {
	var rows []cpBenchRow
	for _, fieldBus := range []bool{false, true} {
		fcfg := cpBenchFleetCfg(c.Rooms, c.Seed)
		bus := "inproc"
		if fieldBus {
			// Shards actuate over Modbus registers; the reference must
			// quantize identically or no hash could ever match.
			fcfg.Quantize = modbus.QuantizeTempC
			bus = "modbus"
		}
		want, err := cpReference(fcfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "control-plane chaos sweep, %s bus: %d rooms, %d trials (heartbeat 10ms, dead after %v, step delay %v)\n",
			bus, c.Rooms, c.Trials, cpDeadAfter, cpStepDelay)
		for _, ev := range []struct {
			name  string
			trial func(fleet.Config, bool, map[int]uint64) (float64, int, error)
			verb  string
		}{
			{"failover", failoverTrial, "shard kill -> rooms re-placed in"},
			{"migration_pause", migrationTrial, "live migration paused control for"},
		} {
			row := cpBenchRow{Bus: bus, Event: ev.name}
			var lat []time.Duration
			for i := 0; i < c.Trials; i++ {
				ms, checks, err := ev.trial(fcfg, fieldBus, want)
				if err != nil {
					return nil, fmt.Errorf("%s bus %s trial %d: %w", bus, ev.name, i, err)
				}
				row.SamplesMs = append(row.SamplesMs, ms)
				row.HashChecks += checks
				lat = append(lat, time.Duration(ms*float64(time.Millisecond)))
				fmt.Fprintf(w, "  trial %d: %s %8.1f ms (%d hashes verified)\n", i, ev.verb, ms, checks)
			}
			row.latencyCols = latencyOf(fleet.ComputeLatencyStats(lat))
			rows = append(rows, row)
		}
	}
	fmt.Fprintf(w, "\n  %-7s %-16s %8s %8s %8s %8s %7s\n", "bus", "event", "p50 ms", "p90 ms", "p99 ms", "max ms", "hashes")
	for _, r := range rows {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		fmt.Fprintf(w, "  %-7s %-16s %8.1f %8.1f %8.1f %8.1f %7d\n", r.Bus, r.Event, ms(r.P50Ns), ms(r.P90Ns), ms(r.P99Ns), ms(r.MaxNs), r.HashChecks)
	}
	return rows, nil
}
