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
// Every mode steps its rooms through one engine, fleet.Runner, under the
// fleet contract built from the flags; a flag the mode does not honour is
// rejected. -speedup 0 (default) runs flat out, N paces at N× real time;
// -minutes 0 runs until signalled.
//
// -datadir enables the durable store: each room appends its warm-up and
// control steps to a write-ahead log under <datadir>/<room-name> (the single
// room's is <datadir>/room-0) and checkpoints controller, supervisor and
// operator counters every -checkpoint steps and at graceful shutdown. A
// restart replays the log past the checkpoint through the real decision
// path, plant included, and continues exactly where an uninterrupted run
// would be. -walsync batches WAL fsyncs (0 = every record, n = every n,
// negative = never; the shutdown flush always syncs). -policy selects the
// controller: tesla (default) and mpc train at CI scale first; fixed and
// modelfree (training-free intelligent-P) boot cold.
//
// A single room runs the §4 wire path: set-points travel gateway →
// Modbus/TCP → ACU register bridge, quantized to its centidegrees, and every
// live sample is scraped into the time-series store over HTTP. -rooms N
// (N > 1) runs N concurrent rooms — diurnal loads cycling medium/high/idle,
// or all at -load — feeding a bounded per-room telemetry queue pipeline
// whose rollup backs the fleet endpoints.
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
// (internal/ingest) to the single room or a shard: comma-separated input
// specs — modbus[=measurement] polls the daemon's ACU gateway, http[=addr]
// accepts batched line-protocol writes, subscribe=host:port[;...] consumes
// sequenced delta streams — feeding a retention-tiered store with exact
// loss accounting. /status gains an "ingest" block and /metrics gains
// tesla_ingest_* + tesla_tsdb_* series; on -role shard the ledgers ride
// every heartbeat into the coordinator's /fleet rollup.
//
// SIGINT/SIGTERM drain every room at its next step boundary (final
// checkpoint, WAL flushed and synced), then the operator HTTP server, and
// print the final summary.
//
// Endpoints (single-room mode):
//
//	GET /status     — JSON snapshot of the control loop
//	GET /metrics    — Prometheus text exposition
//	GET /healthz    — 503 until the first control step publishes, then 200
//	GET /fleet, /rooms/0 — as in fleet mode
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
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tesla/internal/experiment"
	"tesla/internal/fleet"
	"tesla/internal/workload"
)

// coldLimitC is the ASHRAE cold-aisle limit every room is supervised against.
const coldLimitC = 22

// options are teslad's parsed flags. set names the flags the command line
// gave explicitly, which is what the per-mode checks read.
type options struct {
	listen, load, policy, sched, datadir string
	role, id, coordinator, advertise     string
	inputs                               string
	minutes, rooms, checkpoint, walsync  int
	speedup                              float64
	seed                                 uint64
	gateway                              bool
	stepDelay, gatherEvery, compactEvery time.Duration

	set map[string]bool
	// stepHook, when set, observes every room's step index after the step
	// publishes; tests use it to interrupt a run at a known step.
	stepHook func(room, step int)
}

// modeFlags lists the flags each mode honours beyond the shared -listen,
// -seed, -minutes, -rooms and -policy.
var modeFlags = map[string][]string{
	"room":        {"load", "speedup", "datadir", "checkpoint", "walsync", "inputs", "gatherevery", "compactevery"},
	"fleet":       {"load", "speedup", "datadir", "checkpoint", "walsync"},
	"scheduler":   {"scheduler", "speedup"},
	"coordinator": {"role"},
	"shard":       {"role", "id", "coordinator", "advertise", "stepdelay", "datadir", "checkpoint", "walsync", "inputs", "gateway", "gatherevery", "compactevery"},
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err == nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = run(ctx, o)
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "teslad:", err)
		os.Exit(1)
	}
}

// parseFlags parses args and rejects every flag the selected mode would
// ignore.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("teslad", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8844", "operator HTTP endpoint")
	fs.StringVar(&o.load, "load", "medium", "load setting: idle|medium|high (every room; fleet mode cycles all three when unset)")
	fs.IntVar(&o.minutes, "minutes", 120, "control-loop duration in minutes (0 = until signalled)")
	fs.Float64Var(&o.speedup, "speedup", 0, "0 = run flat out; N = pace at N× real time")
	fs.IntVar(&o.rooms, "rooms", 1, "machine rooms to run; > 1 switches to fleet mode")
	fs.Uint64Var(&o.seed, "seed", 11, "master seed every per-room substream derives from")
	fs.StringVar(&o.policy, "policy", "tesla", "room controller: tesla|fixed|mpc|modelfree|lazic|tsrl")
	fs.StringVar(&o.sched, "scheduler", "", "fleet batch scheduler: none|defer|full (empty disables; runs the lockstep scheduled fleet)")
	fs.StringVar(&o.datadir, "datadir", "", "directory for the durable WAL + snapshot store (empty disables durability)")
	fs.IntVar(&o.checkpoint, "checkpoint", 15, "checkpoint controller state every N control steps (needs -datadir)")
	fs.IntVar(&o.walsync, "walsync", 0, "WAL fsync batch: 0 = every record, n = every n records, negative = never (needs -datadir)")
	fs.StringVar(&o.role, "role", "", "control-plane role: coordinator|shard (empty = standalone daemon)")
	fs.StringVar(&o.id, "id", "", "shard identity on the placement ring (-role shard)")
	fs.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL the shard registers with (-role shard; empty = autonomous)")
	fs.StringVar(&o.advertise, "advertise", "", "base URL the coordinator dials this shard back on (default: the bound -listen address)")
	fs.DurationVar(&o.stepDelay, "stepdelay", 0, "pace each hosted room's loop by this much per control step (-role shard)")
	fs.StringVar(&o.inputs, "inputs", "", "telemetry ingest inputs, comma-separated specs: modbus[=measurement], http[=addr], subscribe=host:port[;host:port...] (empty disables the ingest pipeline)")
	fs.BoolVar(&o.gateway, "gateway", false, "run a Modbus field bus under every hosted room (-role shard): in-process ACU device sims actuated and polled through a per-shard gateway")
	fs.DurationVar(&o.gatherEvery, "gatherevery", time.Second, "ingest pipeline pull-input gather cadence (needs -inputs)")
	fs.DurationVar(&o.compactEvery, "compactevery", 5*time.Second, "ingest pipeline TSDB compaction cadence (needs -inputs)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, o.validate()
}

// mode names what this invocation runs.
func (o *options) mode() string {
	switch {
	case o.role != "":
		return o.role
	case o.sched != "":
		return "scheduler"
	case o.rooms > 1:
		return "fleet"
	}
	return "room"
}

func (o *options) validate() error {
	mode := o.mode()
	allowed, ok := modeFlags[mode]
	if !ok {
		return fmt.Errorf("unknown role %q (want coordinator or shard)", o.role)
	}
	honoured := map[string]bool{"listen": true, "seed": true, "minutes": true, "rooms": true, "policy": true}
	for _, name := range allowed {
		honoured[name] = true
	}
	for name := range o.set {
		if !honoured[name] {
			return fmt.Errorf("-%s is not supported in %s mode", name, mode)
		}
	}
	switch {
	case o.rooms < 1:
		return fmt.Errorf("-rooms must be at least 1")
	case (o.set["checkpoint"] || o.set["walsync"]) && o.datadir == "":
		return fmt.Errorf("-checkpoint and -walsync need -datadir")
	case (o.set["gatherevery"] || o.set["compactevery"]) && o.inputs == "":
		return fmt.Errorf("-gatherevery and -compactevery need -inputs")
	case mode == "shard" && o.id == "":
		return fmt.Errorf("-role shard needs -id")
	case mode == "shard" && o.datadir == "":
		return fmt.Errorf("-role shard needs -datadir (the shard's durable root; shards sharing a root get failover recovery)")
	}
	return nil
}

// run dispatches to the selected mode.
func run(ctx context.Context, o options) error {
	switch o.mode() {
	case "coordinator", "shard":
		return runControlPlane(ctx, o)
	case "scheduler":
		return runSchedFleet(ctx, o)
	}
	_, err := runRooms(ctx, o)
	return err
}

// fleetConfig is the one flags → fleet.Config mapping every mode runs under.
// For the control-plane roles it is the contract that lets any shard host
// any room: coordinator and shards MUST be launched with identical -rooms,
// -seed, -minutes and -policy values, and the coordinator validates
// placements against its own copy. -minutes 0 is an open horizon for the
// standalone daemon; the roles keep the 12-hour default.
func fleetConfig(o options) (fleet.Config, error) {
	cfg := fleet.DefaultConfig(o.rooms, o.seed, nil)
	if o.set["load"] {
		load, err := workload.ParseSetting(o.load)
		if err != nil {
			return fleet.Config{}, err
		}
		cfg.Rooms = fleet.DiurnalSpecs(o.rooms, o.seed, load)
	}
	factory, err := experiment.PolicyFactory(o.policy, func() (*experiment.Artifacts, error) {
		fmt.Println("teslad: training models (ci scale)...")
		return experiment.Prepare(experiment.CIScale(), false)
	})
	if err != nil {
		return fleet.Config{}, err
	}
	cfg.NewPolicy = factory
	switch {
	case o.minutes > 0:
		cfg.EvalS = float64(o.minutes) * 60
	case o.role == "":
		cfg.EvalS = math.Inf(1)
	}
	cfg.DataDir = o.datadir
	cfg.SnapshotEvery = o.checkpoint
	cfg.SyncEvery = o.walsync
	return cfg, nil
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
