package controlplane

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/ingest"
	"tesla/internal/scheduler"
	"tesla/internal/telemetry"
)

// CoordinatorConfig assembles the fleet coordinator.
type CoordinatorConfig struct {
	// Fleet is the fleet being sharded — the same config every shard holds.
	Fleet fleet.Config
	// SuspectAfter stages a quiet shard to suspect (default 3s); DeadAfter
	// declares it dead, fences its lease and re-places its rooms (default
	// 6s). DeadAfter must exceed SuspectAfter.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// ReconcileEvery is the placement/liveness sweep period (default 500ms).
	ReconcileEvery time.Duration
	// Vnodes tunes the placement ring (default 64 per shard).
	Vnodes int
	// Seed seeds the coordinator's RPC backoff jitter.
	Seed uint64
	// RPC tunes coordinator→shard clients; Ident and Seed are filled in.
	RPC ClientOptions
}

func (c *CoordinatorConfig) withDefaults() {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * time.Second
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	if c.ReconcileEvery <= 0 {
		c.ReconcileEvery = 500 * time.Millisecond
	}
	c.RPC.Ident = "coordinator"
	c.RPC.Seed = c.Seed
}

// ShardHealth is a tracked shard's liveness stage.
type ShardHealth string

const (
	ShardAlive   ShardHealth = "alive"
	ShardSuspect ShardHealth = "suspect"
	ShardDead    ShardHealth = "dead"
)

// shardState is the coordinator's view of one shard.
type shardState struct {
	id       string
	addr     string
	epoch    uint64 // lease epoch granted at registration
	lastBeat time.Time
	health   ShardHealth
	client   *Client
	rollup   telemetry.Rollup
	gateway  *gateway.Stats
	ingest   *ingest.Stats
	field    *telemetry.Rollup
	sched    *scheduler.Counters
}

// roomState is the coordinator's view of one room's placement.
type roomState struct {
	epoch   uint64 // assignment epoch, bumped on every re-placement
	shard   string // "" = unplaced
	step    int
	done    bool
	result  *fleet.RoomResult
	lastErr string // last error the hosting shard reported for this room
}

// ShardInfo is a shard's externally visible state.
type ShardInfo struct {
	ID          string      `json:"id"`
	Addr        string      `json:"addr"`
	Health      ShardHealth `json:"health"`
	Epoch       uint64      `json:"epoch"`
	BeatAgeMs   int64       `json:"beat_age_ms"`
	Rooms       int         `json:"rooms"`
	RollupRooms int         `json:"rollup_rooms"`
}

// RoomPlacement is a room's externally visible placement.
type RoomPlacement struct {
	Room   int               `json:"room"`
	Name   string            `json:"name"`
	Shard  string            `json:"shard,omitempty"`
	Epoch  uint64            `json:"epoch"`
	Step   int               `json:"step"`
	Done   bool              `json:"done"`
	Result *fleet.RoomResult `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// FleetView is the coordinator's rollup of the whole estate: per-shard
// rollups merged into one telemetry aggregate, gateway stats summed, and
// every room's placement. It is built entirely from the last heartbeats, so
// it keeps serving (with growing beat ages) when shards go quiet.
type FleetView struct {
	Rooms    int              `json:"rooms"`
	Placed   int              `json:"placed"`
	Done     int              `json:"done"`
	Unplaced int              `json:"unplaced"`
	Shards   []ShardInfo      `json:"shards"`
	Rollup   telemetry.Rollup `json:"rollup"`
	Gateway  *gateway.Stats   `json:"gateway,omitempty"`
	Ingest   *ingest.Stats    `json:"ingest,omitempty"`
	// Field is the fleet-wide field-bus poll ledger: every live shard's
	// per-room Modbus poller rollups merged. Absent when no shard runs a
	// field bus.
	Field *telemetry.Rollup `json:"field,omitempty"`
	// Sched is the fleet-wide batch-scheduler ledger: every live shard's
	// placement/deferral/migration counters and queue depths merged. Absent
	// when no shard runs a scheduler.
	Sched      *scheduler.Counters `json:"sched,omitempty"`
	Placements []RoomPlacement     `json:"placements"`
}

// Counters are the coordinator's control-plane event totals.
type Counters struct {
	Failovers         uint64 `json:"failovers"`      // shard-death events that re-placed rooms
	RoomFailovers     uint64 `json:"room_failovers"` // rooms re-placed by those events
	MigrationsOK      uint64 `json:"migrations_ok"`
	MigrationsFailed  uint64 `json:"migrations_failed"`
	FencedHeartbeats  uint64 `json:"fenced_heartbeats"` // zombie beats rejected
	FencedRoomReports uint64 `json:"fenced_room_reports"`
}

// MigrationReport describes one completed live migration.
type MigrationReport struct {
	Room  int    `json:"room"`
	From  string `json:"from"`
	To    string `json:"to"`
	Step  int    `json:"step"`  // drain barrier = resume point
	Epoch uint64 `json:"epoch"` // assignment epoch on the target
	// PauseMs is the control-plane pause: from the drain request until the
	// room was stepping again on the target.
	PauseMs float64 `json:"pause_ms"`
}

// Coordinator places rooms on shards, tracks their leases and re-places
// rooms when shards die. It never touches room state itself — all durable
// truth lives in the rooms' stores — so losing the coordinator costs
// placement agility, not control.
type Coordinator struct {
	cfg CoordinatorConfig

	mu       sync.Mutex
	shards   map[string]*shardState
	rooms    []roomState
	ring     *Ring
	epochSeq uint64
	counters Counters

	mux  *http.ServeMux
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewCoordinator builds a coordinator for the given fleet.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Fleet.Validate(); err != nil {
		return nil, err
	}
	cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		shards: make(map[string]*shardState),
		rooms:  make([]roomState, len(cfg.Fleet.Rooms)),
		ring:   NewRing(cfg.Vnodes),
		stop:   make(chan struct{}),
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/register", c.handleRegister)
	c.mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("/fleet", c.handleFleet)
	c.mux.HandleFunc("/shards", c.handleShards)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/metrics", c.handleMetrics)
	c.mux.HandleFunc("/migrate", c.handleMigrate)
	return c, nil
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Start launches the reconcile loop.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ReconcileEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.Reconcile()
			}
		}
	}()
}

// Stop halts the reconcile loop. Shards keep running their rooms.
func (c *Coordinator) Stop() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
}

func (c *Coordinator) roomKey(i int) string {
	return fmt.Sprintf("%s#%d", c.cfg.Fleet.RoomName(i), i)
}

// Reconcile runs one liveness + placement sweep: stage quiet shards through
// suspect to dead (fencing the dead and re-placing their rooms), then place
// every unplaced, unfinished room on its ring owner. Placement RPCs use the
// client's bounded retries; a placement that still fails (say, the room's
// store is locked by a not-yet-fenced zombie) stays unplaced and is retried
// next sweep — convergence is eventual, not per-call.
func (c *Coordinator) Reconcile() {
	now := time.Now()

	type assignment struct {
		room   int
		epoch  uint64
		client *Client
		shard  string
	}
	var todo []assignment

	c.mu.Lock()
	for _, sh := range c.shards {
		if sh.health == ShardDead {
			continue
		}
		age := now.Sub(sh.lastBeat)
		switch {
		case age > c.cfg.DeadAfter:
			sh.health = ShardDead
			c.ring.Remove(sh.id)
			moved := 0
			for i := range c.rooms {
				if c.rooms[i].shard == sh.id && !c.rooms[i].done {
					c.rooms[i].shard = ""
					c.rooms[i].epoch++
					moved++
				}
			}
			c.counters.Failovers++
			c.counters.RoomFailovers += uint64(moved)
		case age > c.cfg.SuspectAfter:
			sh.health = ShardSuspect
		}
	}
	for i := range c.rooms {
		rm := &c.rooms[i]
		if rm.done || rm.shard != "" {
			continue
		}
		owner := c.ring.Lookup(c.roomKey(i))
		if owner == "" {
			continue
		}
		sh := c.shards[owner]
		rm.epoch++
		// Commit the placement before the RPC goes out: the shard starts
		// hosting (and heartbeat-reporting) the room before the assign
		// response returns, and a report against a still-unplaced room would
		// be fenced — killing the host we just created. Placement intent is
		// the coordinator's to declare; the RPC only confirms it.
		rm.shard = owner
		todo = append(todo, assignment{room: i, epoch: rm.epoch, client: sh.client, shard: owner})
	}
	c.mu.Unlock()

	for _, a := range todo {
		var resp AssignResponse
		err := a.client.Call(context.Background(), http.MethodPost, "/assign",
			AssignRequest{Room: a.room, Epoch: a.epoch}, &resp)
		c.mu.Lock()
		rm := &c.rooms[a.room]
		if rm.epoch == a.epoch && rm.shard == a.shard {
			if err == nil {
				rm.step = resp.Step
			} else {
				rm.shard = "" // placement failed; retried next sweep
			}
		}
		c.mu.Unlock()
	}
}

// Migrate live-migrates a placed room to the named shard: drain on the
// source (write barrier), ship the newest snapshot + WAL, resume on the
// target at a bumped assignment epoch. On any failure past the drain the
// room is left unplaced for the reconcile loop to re-place from its durable
// store.
func (c *Coordinator) Migrate(ctx context.Context, room int, target string) (MigrationReport, error) {
	c.mu.Lock()
	if room < 0 || room >= len(c.rooms) {
		c.mu.Unlock()
		return MigrationReport{}, fmt.Errorf("controlplane: no room %d", room)
	}
	rm := c.rooms[room]
	tgt, ok := c.shards[target]
	src, okSrc := c.shards[rm.shard]
	switch {
	case !ok || tgt.health == ShardDead:
		c.mu.Unlock()
		return MigrationReport{}, fmt.Errorf("controlplane: target shard %q unknown or dead", target)
	case rm.done:
		c.mu.Unlock()
		return MigrationReport{}, fmt.Errorf("controlplane: room %d already finished", room)
	case rm.shard == "" || !okSrc:
		c.mu.Unlock()
		return MigrationReport{}, fmt.Errorf("controlplane: room %d is not placed", room)
	case rm.shard == target:
		c.mu.Unlock()
		return MigrationReport{}, fmt.Errorf("controlplane: room %d already on %s", room, target)
	}
	from := rm.shard
	epoch := rm.epoch
	srcClient, tgtClient := src.client, tgt.client
	c.mu.Unlock()

	fail := func(err error) (MigrationReport, error) {
		c.mu.Lock()
		c.counters.MigrationsFailed++
		if c.rooms[room].epoch == epoch && !c.rooms[room].done {
			// The room is off the source (or in limbo); let reconcile
			// re-place it from durable state.
			c.rooms[room].shard = ""
			c.rooms[room].epoch++
		}
		c.mu.Unlock()
		return MigrationReport{}, err
	}

	pauseStart := time.Now()
	var dr DrainResponse
	if err := srcClient.Call(ctx, http.MethodPost, "/drain", DrainRequest{Room: room}, &dr); err != nil {
		return fail(fmt.Errorf("controlplane: drain room %d on %s: %w", room, from, err))
	}
	var b Bundle
	if err := srcClient.Call(ctx, http.MethodGet, fmt.Sprintf("/bundle?room=%d", room), nil, &b); err != nil {
		return fail(fmt.Errorf("controlplane: bundle room %d from %s: %w", room, from, err))
	}
	b.Step = dr.Step
	b.GatewaySeqs = dr.GatewaySeqs

	// Commit the new placement before the resume RPC for the same reason
	// Reconcile does: the target starts reporting the room the moment it
	// hosts it, and an unplaced-room report would be fenced.
	c.mu.Lock()
	c.rooms[room].epoch++
	epoch = c.rooms[room].epoch
	c.rooms[room].shard = target
	c.mu.Unlock()

	var rr ResumeResponse
	if err := tgtClient.Call(ctx, http.MethodPost, "/resume",
		ResumeRequest{Room: room, Epoch: epoch, Bundle: b}, &rr); err != nil {
		return fail(fmt.Errorf("controlplane: resume room %d on %s: %w", room, target, err))
	}
	pause := time.Since(pauseStart)

	c.mu.Lock()
	if c.rooms[room].epoch == epoch {
		c.rooms[room].step = rr.Step
	}
	c.counters.MigrationsOK++
	c.mu.Unlock()
	return MigrationReport{
		Room: room, From: from, To: target, Step: rr.Step, Epoch: epoch,
		PauseMs: float64(pause.Nanoseconds()) / 1e6,
	}, nil
}

// Counters snapshots the control-plane event totals.
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Fleet builds the estate view from the last heartbeats.
func (c *Coordinator) Fleet() FleetView {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	v := FleetView{Rooms: len(c.rooms)}
	var gw gateway.Stats
	haveGw := false
	var ing ingest.Stats
	haveIng := false
	var fld telemetry.Rollup
	haveFld := false
	var sched scheduler.Counters
	haveSched := false
	ids := make([]string, 0, len(c.shards))
	for id := range c.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sh := c.shards[id]
		hosted := 0
		for i := range c.rooms {
			if c.rooms[i].shard == id && !c.rooms[i].done {
				hosted++
			}
		}
		v.Shards = append(v.Shards, ShardInfo{
			ID: id, Addr: sh.addr, Health: sh.health, Epoch: sh.epoch,
			BeatAgeMs:   now.Sub(sh.lastBeat).Milliseconds(),
			Rooms:       hosted,
			RollupRooms: sh.rollup.Rooms,
		})
		if sh.health != ShardDead {
			v.Rollup.Merge(sh.rollup)
			if sh.gateway != nil {
				mergeGateway(&gw, *sh.gateway)
				haveGw = true
			}
			if sh.ingest != nil {
				ing.Merge(*sh.ingest)
				haveIng = true
			}
			if sh.field != nil {
				fld.Merge(*sh.field)
				haveFld = true
			}
			if sh.sched != nil {
				sched.Merge(*sh.sched)
				haveSched = true
			}
		}
	}
	// The merged Rooms field counts per-shard ingestor instances over time;
	// the coordinator's placement table is the authoritative room count.
	v.Rollup.Rooms = len(c.rooms)
	if haveGw {
		v.Gateway = &gw
	}
	if haveIng {
		v.Ingest = &ing
	}
	if haveFld {
		v.Field = &fld
	}
	if haveSched {
		v.Sched = &sched
	}
	for i := range c.rooms {
		rm := &c.rooms[i]
		v.Placements = append(v.Placements, RoomPlacement{
			Room: i, Name: c.cfg.Fleet.RoomName(i), Shard: rm.shard,
			Epoch: rm.epoch, Step: rm.step, Done: rm.done, Result: rm.result,
			Error: rm.lastErr,
		})
		switch {
		case rm.done:
			v.Done++
		case rm.shard != "":
			v.Placed++
		default:
			v.Unplaced++
		}
	}
	return v
}

func mergeGateway(dst *gateway.Stats, s gateway.Stats) {
	dst.Devices += s.Devices
	dst.Connected += s.Connected
	dst.InFlight += s.InFlight
	dst.Submitted += s.Submitted
	dst.Completed += s.Completed
	dst.Failed += s.Failed
	dst.Dropped += s.Dropped
	dst.Reconnects += s.Reconnects
	dst.DialFailures += s.DialFailures
	dst.WireReads += s.WireReads
	dst.MergedReads += s.MergedReads
	dst.Writes += s.Writes
}

// --- HTTP handlers ---

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, nil, &req) {
		return
	}
	if req.ID == "" || req.Addr == "" {
		writeError(w, r, nil, http.StatusBadRequest, "register needs id and addr")
		return
	}
	c.mu.Lock()
	c.epochSeq++
	epoch := c.epochSeq
	// A re-registration (fenced zombie coming back, or a restarted shard)
	// starts a fresh lease. Any rooms still attributed to the old
	// incarnation are re-placed: the new process does not host them.
	for i := range c.rooms {
		if c.rooms[i].shard == req.ID && !c.rooms[i].done {
			c.rooms[i].shard = ""
			c.rooms[i].epoch++
		}
	}
	c.shards[req.ID] = &shardState{
		id: req.ID, addr: req.Addr, epoch: epoch,
		lastBeat: time.Now(), health: ShardAlive,
		client: NewClient(req.Addr, c.cfg.RPC),
	}
	c.ring.Add(req.ID)
	c.mu.Unlock()
	writeJSON(w, r, nil, http.StatusOK, RegisterResponse{Epoch: epoch})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, nil, &req) {
		return
	}
	c.mu.Lock()
	sh, ok := c.shards[req.ID]
	if !ok || sh.health == ShardDead || sh.epoch != req.Epoch {
		// A beat from a buried or unknown incarnation: fence it. The shard
		// must stop writing and re-register.
		c.counters.FencedHeartbeats++
		c.mu.Unlock()
		writeError(w, r, nil, http.StatusConflict, "shard %s epoch %d is fenced", req.ID, req.Epoch)
		return
	}
	sh.lastBeat = time.Now()
	sh.health = ShardAlive
	sh.rollup = req.Rollup
	sh.gateway = req.Gateway
	sh.ingest = req.Ingest
	sh.field = req.Field
	sh.sched = req.Sched

	var resp HeartbeatResponse
	for _, st := range req.Rooms {
		if st.Room < 0 || st.Room >= len(c.rooms) {
			continue
		}
		rm := &c.rooms[st.Room]
		if rm.shard != req.ID || rm.epoch != st.Epoch {
			// The room moved on without this shard — epoch fencing rejects
			// the zombie's report and tells it to relinquish.
			c.counters.FencedRoomReports++
			resp.FencedRooms = append(resp.FencedRooms, FencedRoom{Room: st.Room, Epoch: st.Epoch})
			continue
		}
		rm.step = st.Step
		rm.lastErr = st.Error
		if st.Done && st.Result != nil {
			rm.done = true
			res := *st.Result
			rm.result = &res
		}
	}
	c.mu.Unlock()
	writeJSON(w, r, nil, http.StatusOK, resp)
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, nil, http.StatusOK, c.Fleet())
}

func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, nil, http.StatusOK, c.Fleet().Shards)
}

// handleHealthz reports 503 while any unfinished room lacks a live
// placement — the condition an operator must react to, because unplaced
// rooms are not being controlled by anyone.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := c.Fleet()
	status := http.StatusOK
	if v.Unplaced > 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, r, nil, status, map[string]any{
		"rooms": v.Rooms, "placed": v.Placed, "done": v.Done, "unplaced": v.Unplaced,
	})
}

func (c *Coordinator) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Room   int    `json:"room"`
		Target string `json:"target"`
	}
	if !decodeBody(w, r, nil, &req) {
		return
	}
	rep, err := c.Migrate(r.Context(), req.Room, req.Target)
	if err != nil {
		writeError(w, r, nil, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, r, nil, http.StatusOK, rep)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	v := c.Fleet()
	ct := c.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE tesla_shard_heartbeat_age_seconds gauge\n")
	for _, sh := range v.Shards {
		fmt.Fprintf(w, "tesla_shard_heartbeat_age_seconds{shard=%q,health=%q} %g\n",
			sh.ID, sh.Health, float64(sh.BeatAgeMs)/1000)
	}
	fmt.Fprintf(w, "# TYPE tesla_failovers_total counter\ntesla_failovers_total %d\n", ct.Failovers)
	fmt.Fprintf(w, "# TYPE tesla_room_failovers_total counter\ntesla_room_failovers_total %d\n", ct.RoomFailovers)
	fmt.Fprintf(w, "# TYPE tesla_migrations_total counter\n")
	fmt.Fprintf(w, "tesla_migrations_total{result=\"ok\"} %d\n", ct.MigrationsOK)
	fmt.Fprintf(w, "tesla_migrations_total{result=\"error\"} %d\n", ct.MigrationsFailed)
	fmt.Fprintf(w, "# TYPE tesla_fenced_heartbeats_total counter\ntesla_fenced_heartbeats_total %d\n", ct.FencedHeartbeats)
	fmt.Fprintf(w, "# TYPE tesla_rooms_unplaced gauge\ntesla_rooms_unplaced %d\n", v.Unplaced)
	fmt.Fprintf(w, "# TYPE tesla_rooms_done gauge\ntesla_rooms_done %d\n", v.Done)
	fmt.Fprintf(w, "# TYPE tesla_fleet_samples_ingested_total counter\ntesla_fleet_samples_ingested_total %d\n", v.Rollup.Samples)
	if v.Ingest != nil {
		fmt.Fprintf(w, "# TYPE tesla_fleet_ingest_attempts_total counter\ntesla_fleet_ingest_attempts_total %d\n", v.Ingest.Attempts)
		fmt.Fprintf(w, "# TYPE tesla_fleet_ingest_ingested_total counter\ntesla_fleet_ingest_ingested_total %d\n", v.Ingest.Ingested)
		fmt.Fprintf(w, "# TYPE tesla_fleet_ingest_dropped_total counter\ntesla_fleet_ingest_dropped_total %d\n", v.Ingest.Dropped)
		fmt.Fprintf(w, "# TYPE tesla_fleet_ingest_seq_gaps_total counter\ntesla_fleet_ingest_seq_gaps_total %d\n", v.Ingest.SeqGaps)
		fmt.Fprintf(w, "# TYPE tesla_fleet_tsdb_raw_points gauge\ntesla_fleet_tsdb_raw_points %d\n", v.Ingest.TSDB.RawPoints)
		fmt.Fprintf(w, "# TYPE tesla_fleet_tsdb_inserted_total counter\ntesla_fleet_tsdb_inserted_total %d\n", v.Ingest.TSDB.Inserted)
	}
	if v.Gateway != nil {
		// Fleet-wide sums over every live shard's gateway, under the same
		// metric names the shards expose with {shard=...} labels.
		v.Gateway.WriteMetrics(w, "")
	}
	if v.Field != nil {
		fmt.Fprintf(w, "# TYPE tesla_fleet_field_samples_total counter\ntesla_fleet_field_samples_total %d\n", v.Field.Samples)
		fmt.Fprintf(w, "# TYPE tesla_fleet_field_seq_gaps_total counter\ntesla_fleet_field_seq_gaps_total %d\n", v.Field.Gaps)
	}
	if v.Sched != nil {
		fmt.Fprintf(w, "# TYPE tesla_fleet_sched_placements_total counter\ntesla_fleet_sched_placements_total %d\n", v.Sched.Placements)
		fmt.Fprintf(w, "# TYPE tesla_fleet_sched_deferrals_total counter\ntesla_fleet_sched_deferrals_total %d\n", v.Sched.Deferrals)
		fmt.Fprintf(w, "# TYPE tesla_fleet_sched_migrations_total counter\n")
		reasons := make([]string, 0, len(v.Sched.Migrations))
		for r := range v.Sched.Migrations {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(w, "tesla_fleet_sched_migrations_total{reason=%q} %d\n", r, v.Sched.Migrations[r])
		}
		fmt.Fprintf(w, "# TYPE tesla_fleet_sched_waiting_jobs gauge\ntesla_fleet_sched_waiting_jobs %d\n", v.Sched.Waiting)
	}
	fmt.Fprintf(w, "# TYPE tesla_fleet_max_cold_aisle_celsius gauge\ntesla_fleet_max_cold_aisle_celsius %g\n", v.Rollup.MaxColdC)
}
