// Package gateway multiplexes many Modbus/TCP ACU endpoints behind one
// fleet-facing front end — the actuation layer between the fleet
// orchestrator and thousands of devices.
//
// Three mechanisms define it:
//
// Connection state machines. Every device owns a tiny state machine
// (disconnected → connecting → connected) driven by a single goroutine.
// Transport failures drop the connection and schedule a redial behind
// exponential backoff; a dead device fails its callers fast instead of
// stalling them, and reconnects are counted, never silent.
//
// Request coalescing. Queued reads of adjacent registers are merged into
// Modbus block reads (the telegraf request-optimization idiom), so a poll
// sweep of N registers costs one wire round-trip instead of N. Writes are
// barriers: a read enqueued after a write always observes it.
//
// Bounded in-flight windows. Each device admits at most Config.InFlight
// outstanding requests. Excess submissions are rejected immediately with
// ErrWindowFull and counted — exact accounting, same discipline as the
// telemetry pipeline's bounded queues — so one stalled ACU can never eat
// the fleet's goroutines or memory.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// ErrWindowFull rejects a submission that would exceed the device's
// in-flight window. The request was NOT sent; the caller may retry later.
var ErrWindowFull = errors.New("gateway: device in-flight window full")

// ErrClosed rejects requests issued against (or interrupted by) a closed
// gateway.
var ErrClosed = errors.New("gateway: closed")

// Config tunes every device of a gateway.
type Config struct {
	// Timeout bounds one wire exchange and each (re)dial. Default 2 s.
	Timeout time.Duration
	// InFlight bounds requests admitted per device (queued + executing).
	// Default 16.
	InFlight int
	// BackoffMin is the first redial delay after a transport failure; it
	// doubles per consecutive failure up to BackoffMax. Defaults 20 ms / 2 s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// CoalesceGap is the largest run of unrequested registers a merged
	// block read may bridge. 0 (default) merges only adjacent/overlapping
	// ranges, so a merged read never touches a register nobody asked for.
	CoalesceGap uint16
	// MaxBlock caps registers per merged block read (default and hard cap
	// 125, the Modbus limit).
	MaxBlock uint16
	// Unit is the Modbus unit identifier stamped on every request. Default 1.
	Unit byte
	// JitterFrac scatters each redial delay uniformly in
	// [1-JitterFrac, 1+JitterFrac) × backoff, so a fleet of devices cut off
	// by one network event does not redial in lockstep and hammer the ACUs
	// in synchronized waves. Default 0.2; negative disables jitter.
	JitterFrac float64
	// Seed seeds the per-device jitter streams (each device derives its own
	// substream from its id), keeping redial timing deterministic per
	// (Seed, device id) for reproducible tests and simulations.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.InFlight <= 0 {
		c.InFlight = 16
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 20 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = 2 * time.Second
	}
	if c.MaxBlock <= 0 || c.MaxBlock > 125 {
		c.MaxBlock = 125
	}
	if c.Unit == 0 {
		c.Unit = 1
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	} else if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	return c
}

// Gateway owns a set of devices and their connection goroutines.
type Gateway struct {
	cfg Config

	mu      sync.RWMutex
	devices map[string]*Device
	order   []*Device
	retired []*Device
	closed  bool

	wg sync.WaitGroup
}

// New builds an empty gateway.
func New(cfg Config) *Gateway {
	return &Gateway{cfg: cfg.withDefaults(), devices: map[string]*Device{}}
}

// Add registers a device by id at a Modbus/TCP address and starts its
// connection state machine. The first dial happens lazily on the first
// request, so adding thousands of devices is instant.
func (g *Gateway) Add(id, addr string) (*Device, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	if _, dup := g.devices[id]; dup {
		return nil, fmt.Errorf("gateway: duplicate device id %q", id)
	}
	d := newDevice(id, addr, g.cfg)
	g.devices[id] = d
	g.order = append(g.order, d)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		d.loop()
	}()
	return d, nil
}

// Remove stops a device and detaches it from the gateway: pending and
// in-flight requests fail with ErrClosed and the id becomes free for a
// later Add — the room hand-off path, where a migrated room's device
// leaves the source shard's gateway and may return after a fail-back.
// The device's cumulative counters stay in Stats() (its Devices/Connected
// gauges do not), so removal never makes completed work disappear from
// the ledgers. Returns false if no such device exists.
func (g *Gateway) Remove(id string) bool {
	g.mu.Lock()
	d, ok := g.devices[id]
	if ok {
		delete(g.devices, id)
		for i, o := range g.order {
			if o == d {
				g.order = append(g.order[:i], g.order[i+1:]...)
				break
			}
		}
		g.retired = append(g.retired, d)
	}
	g.mu.Unlock()
	if ok {
		d.close()
	}
	return ok
}

// Get returns a device by id.
func (g *Gateway) Get(id string) (*Device, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d, ok := g.devices[id]
	return d, ok
}

// Devices snapshots the device list in Add order.
func (g *Gateway) Devices() []*Device {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]*Device(nil), g.order...)
}

// Close shuts every device down: pending requests fail with ErrClosed,
// in-flight exchanges are interrupted, and every device goroutine has
// exited when Close returns.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	devs := append([]*Device(nil), g.order...)
	g.mu.Unlock()
	for _, d := range devs {
		d.close()
	}
	g.wg.Wait()
	return nil
}

// Stats aggregates every device's counters, including devices since
// removed — their cumulative work stays on the ledger; only the live
// Devices/Connected gauges reflect the current set.
func (g *Gateway) Stats() Stats {
	g.mu.RLock()
	devs := append([]*Device(nil), g.order...)
	live := len(devs)
	devs = append(devs, g.retired...)
	g.mu.RUnlock()
	s := Stats{Devices: live}
	for i, d := range devs {
		ds := d.Stats()
		if i < live && ds.State == StateConnected.String() {
			s.Connected++
		}
		s.Submitted += ds.Submitted
		s.Completed += ds.Completed
		s.Failed += ds.Failed
		s.Dropped += ds.Dropped
		s.Reconnects += ds.Reconnects
		s.DialFailures += ds.DialFailures
		s.WireReads += ds.WireReads
		s.MergedReads += ds.MergedReads
		s.Writes += ds.Writes
		s.InFlight += ds.InFlight
	}
	return s
}

// Stats is the gateway-wide health view surfaced on /metrics and /status.
// Submitted = Completed + Failed + InFlight at every instant; Dropped
// counts window rejections that never entered the pipeline.
type Stats struct {
	Devices   int `json:"devices"`
	Connected int `json:"connected"`
	InFlight  int `json:"in_flight"`

	Submitted    uint64 `json:"submitted"`
	Completed    uint64 `json:"completed"`
	Failed       uint64 `json:"failed"`
	Dropped      uint64 `json:"dropped"`
	Reconnects   uint64 `json:"reconnects"`
	DialFailures uint64 `json:"dial_failures"`
	WireReads    uint64 `json:"wire_reads"`
	MergedReads  uint64 `json:"merged_reads"`
	Writes       uint64 `json:"writes"`
}

// WriteMetrics writes s as the tesla_gateway_* Prometheus series, with
// labels (`{shard="a"}`, or "" for none) appended to every sample name.
func (s Stats) WriteMetrics(w io.Writer, labels string) {
	fmt.Fprintf(w, "# TYPE tesla_gateway_devices gauge\ntesla_gateway_devices%s %d\n", labels, s.Devices)
	fmt.Fprintf(w, "# TYPE tesla_gateway_connected gauge\ntesla_gateway_connected%s %d\n", labels, s.Connected)
	fmt.Fprintf(w, "# TYPE tesla_gateway_in_flight gauge\ntesla_gateway_in_flight%s %d\n", labels, s.InFlight)
	fmt.Fprintf(w, "# TYPE tesla_gateway_requests_total counter\ntesla_gateway_requests_total%s %d\n", labels, s.Submitted)
	fmt.Fprintf(w, "# TYPE tesla_gateway_completed_total counter\ntesla_gateway_completed_total%s %d\n", labels, s.Completed)
	fmt.Fprintf(w, "# TYPE tesla_gateway_failed_total counter\ntesla_gateway_failed_total%s %d\n", labels, s.Failed)
	fmt.Fprintf(w, "# TYPE tesla_gateway_dropped_total counter\ntesla_gateway_dropped_total%s %d\n", labels, s.Dropped)
	fmt.Fprintf(w, "# TYPE tesla_gateway_reconnects_total counter\ntesla_gateway_reconnects_total%s %d\n", labels, s.Reconnects)
	fmt.Fprintf(w, "# TYPE tesla_gateway_dial_failures_total counter\ntesla_gateway_dial_failures_total%s %d\n", labels, s.DialFailures)
	fmt.Fprintf(w, "# TYPE tesla_gateway_wire_reads_total counter\ntesla_gateway_wire_reads_total%s %d\n", labels, s.WireReads)
	fmt.Fprintf(w, "# TYPE tesla_gateway_merged_reads_total counter\ntesla_gateway_merged_reads_total%s %d\n", labels, s.MergedReads)
	fmt.Fprintf(w, "# TYPE tesla_gateway_writes_total counter\ntesla_gateway_writes_total%s %d\n", labels, s.Writes)
}
