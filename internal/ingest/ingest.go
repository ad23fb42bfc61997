// Package ingest is the production-volume telemetry front end: a registry
// of input plugins that feed one tiered-retention TSDB through counting
// sinks with exact accounting.
//
// An Input is anything that produces telemetry records — a Modbus poll
// sweep over an ACU gateway, an HTTP line-protocol listener, a long-lived
// streaming subscription to a device that pushes sequenced deltas. Inputs
// are built by name (optionally with an argument, "name=arg") from a
// Registry, so a daemon flag like
//
//	-inputs http=127.0.0.1:9201,subscribe=10.0.0.7:7401;10.0.0.8:7401
//
// assembles the pipeline without code changes. The Service owns the
// lifecycle: it starts every input with its own Sink, drives pull-based
// inputs from one gather loop, runs the TSDB compactor, and aggregates
// per-input stats into one Stats block with the pipeline invariant
//
//	Attempts == Ingested + Dropped
//
// held exactly — every record presented to a sink is counted exactly once
// as stored or as rejected, never silently lost.
package ingest

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tesla/internal/telemetry"
)

// Input is one telemetry source. Start is called once with the input's
// sink before any Gather; Stop is called once and must release every
// resource (goroutines, listeners, connections) before returning.
//
// Pull-based inputs (Modbus) do their work in Gather, which the Service
// calls on its gather cadence with the current time in seconds. Push-based
// inputs (HTTP, subscribe) run their own goroutines and treat Gather as a
// no-op.
type Input interface {
	Name() string
	Start(sink *Sink) error
	Gather(timeS float64) error
	Stop() error
	Stats() InputStats
}

// InputStats is one input's ledger. Attempts, Ingested and Dropped come
// from the input's sink and satisfy Attempts == Ingested + Dropped
// whenever the input is quiescent.
type InputStats struct {
	Name     string `json:"name"`
	Attempts uint64 `json:"attempts"`
	Ingested uint64 `json:"ingested"`
	Dropped  uint64 `json:"dropped"`
	Gathers  uint64 `json:"gathers"`
	Errors   uint64 `json:"errors"`
	SeqGaps  uint64 `json:"seq_gaps"`

	// Subscription-shaped inputs only.
	Subscriptions int    `json:"subscriptions,omitempty"`
	Resubscribes  uint64 `json:"resubscribes,omitempty"`
	Heartbeats    uint64 `json:"heartbeats,omitempty"`
}

// Sink is the counted path into the TSDB. Every record an input presents
// goes through AddLines or AddRef so the attempts/ingested/dropped
// ledger is exact; inputs never write to the DB directly.
type Sink struct {
	db       *telemetry.DB
	attempts atomic.Uint64
	ingested atomic.Uint64
	dropped  atomic.Uint64
}

// NewSink wraps db in a counting sink.
func NewSink(db *telemetry.DB) *Sink { return &Sink{db: db} }

// DB exposes the underlying store (for resolving SeriesRefs at Start).
func (s *Sink) DB() *telemetry.DB { return s.db }

// AddLines ingests a line-protocol batch. Good lines land even when bad
// lines are interleaved; rejected counts the bad ones exactly.
func (s *Sink) AddLines(batch string) (ok, rejected int, err error) {
	ok, rejected, err = s.db.IngestBatch(batch)
	s.attempts.Add(uint64(ok + rejected))
	s.ingested.Add(uint64(ok))
	s.dropped.Add(uint64(rejected))
	return ok, rejected, err
}

// AddRef appends through a pre-resolved series reference — the allocation-
// free fast path for inputs that know their series up front.
func (s *Sink) AddRef(ref telemetry.SeriesRef, p telemetry.Point) {
	s.attempts.Add(1)
	ref.Append(p)
	s.ingested.Add(1)
}

// Counts snapshots the ledger.
func (s *Sink) Counts() (attempts, ingested, dropped uint64) {
	return s.attempts.Load(), s.ingested.Load(), s.dropped.Load()
}

// fill copies the sink ledger into st.
func (s *Sink) fill(st *InputStats) {
	st.Attempts, st.Ingested, st.Dropped = s.Counts()
}

// Factory builds an input from the argument part of a "name=arg" spec
// (empty when the spec is just "name").
type Factory func(arg string) (Input, error)

// Registry maps input names to factories. The zero registry is not usable;
// NewRegistry pre-registers the built-in inputs ("http", "subscribe").
// Inputs needing richer construction (Modbus wants a live gateway) register
// closures at daemon start.
type Registry struct {
	mu        sync.Mutex
	factories map[string]Factory
}

// NewRegistry returns a registry with the built-in inputs registered.
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]Factory)}
	r.factories["http"] = func(arg string) (Input, error) {
		if arg == "" {
			arg = "127.0.0.1:0"
		}
		return NewHTTPInput(arg), nil
	}
	r.factories["subscribe"] = func(arg string) (Input, error) {
		if arg == "" {
			return nil, fmt.Errorf("ingest: subscribe needs targets, e.g. subscribe=host:port;host:port")
		}
		return NewSubscribeInput(strings.Split(arg, ";"), SubscribeConfig{}), nil
	}
	return r
}

// Register adds a factory under name; registering a taken name is an error
// so plugin wiring mistakes surface at startup, not as silent shadowing.
func (r *Registry) Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("ingest: Register needs a name and a factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("ingest: input %q already registered", name)
	}
	r.factories[name] = f
	return nil
}

// Names lists the registered input names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build constructs one input from a "name" or "name=arg" spec.
func (r *Registry) Build(spec string) (Input, error) {
	name, arg, _ := strings.Cut(spec, "=")
	name = strings.TrimSpace(name)
	r.mu.Lock()
	f, ok := r.factories[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ingest: unknown input %q (have %s)", name, strings.Join(r.Names(), ", "))
	}
	in, err := f(arg)
	if err != nil {
		return nil, fmt.Errorf("ingest: building %q: %w", name, err)
	}
	return in, nil
}

// BuildAll constructs every input in a comma-separated spec list.
func (r *Registry) BuildAll(specs string) ([]Input, error) {
	var inputs []Input
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		in, err := r.Build(spec)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, in)
	}
	return inputs, nil
}

// Stats is the service-level aggregate: the sum of every input's ledger
// plus the TSDB's own. Mergeable, so a coordinator can fold per-shard
// ingest stats into one fleet view.
type Stats struct {
	Inputs        int    `json:"inputs"`
	Attempts      uint64 `json:"attempts"`
	Ingested      uint64 `json:"ingested"`
	Dropped       uint64 `json:"dropped"`
	SeqGaps       uint64 `json:"seq_gaps"`
	Subscriptions int    `json:"subscriptions"`
	Resubscribes  uint64 `json:"resubscribes"`
	Gathers       uint64 `json:"gathers"`
	GatherErrors  uint64 `json:"gather_errors"`

	TSDB telemetry.TSDBStats `json:"tsdb"`
}

// Merge folds o into s, field-wise sums throughout.
func (s *Stats) Merge(o Stats) {
	s.Inputs += o.Inputs
	s.Attempts += o.Attempts
	s.Ingested += o.Ingested
	s.Dropped += o.Dropped
	s.SeqGaps += o.SeqGaps
	s.Subscriptions += o.Subscriptions
	s.Resubscribes += o.Resubscribes
	s.Gathers += o.Gathers
	s.GatherErrors += o.GatherErrors
	s.TSDB.Series += o.TSDB.Series
	s.TSDB.RawPoints += o.TSDB.RawPoints
	s.TSDB.MinutePoints += o.TSDB.MinutePoints
	s.TSDB.HourPoints += o.TSDB.HourPoints
	s.TSDB.Inserted += o.TSDB.Inserted
	s.TSDB.RawCompacted += o.TSDB.RawCompacted
	s.TSDB.MinuteCompacted += o.TSDB.MinuteCompacted
	s.TSDB.HourDropped += o.TSDB.HourDropped
	s.TSDB.LateDropped += o.TSDB.LateDropped
	s.TSDB.Rejected += o.TSDB.Rejected
	s.TSDB.Compactions += o.TSDB.Compactions
}

// Config tunes a Service.
type Config struct {
	// DB is the store every input feeds. Required.
	DB *telemetry.DB
	// GatherEvery is the pull cadence for Gather-driven inputs (default 1s).
	GatherEvery time.Duration
	// CompactEvery, when > 0, runs the TSDB compactor on that interval for
	// the life of the service.
	CompactEvery time.Duration
	// Now supplies the time in seconds for gather stamps and compaction
	// cutoffs (default wall clock). Tests and benches inject their own.
	Now func() float64
}

// Service owns a set of inputs feeding one TSDB: per-input sinks, the
// gather loop, the compaction loop, and aggregated stats.
type Service struct {
	cfg Config

	mu      sync.Mutex
	inputs  []Input
	sinks   []*Sink
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup

	gathers      atomic.Uint64
	gatherErrors atomic.Uint64
}

// NewService builds an idle service; Add inputs, then Start.
func NewService(cfg Config) *Service {
	if cfg.GatherEvery <= 0 {
		cfg.GatherEvery = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	}
	return &Service{cfg: cfg}
}

// Add registers an input; must be called before Start.
func (s *Service) Add(in Input) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("ingest: Add after Start")
	}
	s.inputs = append(s.inputs, in)
	return nil
}

// Start brings up every input (each with its own sink over the shared DB)
// and launches the gather and compaction loops. If any input fails to
// start, the ones already started are stopped and the error returned.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("ingest: Start twice")
	}
	if s.cfg.DB == nil {
		return fmt.Errorf("ingest: Config.DB is required")
	}
	s.sinks = make([]*Sink, len(s.inputs))
	for i, in := range s.inputs {
		s.sinks[i] = NewSink(s.cfg.DB)
		if err := in.Start(s.sinks[i]); err != nil {
			for j := 0; j < i; j++ {
				s.inputs[j].Stop()
			}
			return fmt.Errorf("ingest: starting %s: %w", in.Name(), err)
		}
	}
	s.stop = make(chan struct{})
	s.started = true
	s.wg.Add(1)
	go s.gatherLoop(s.stop)
	if s.cfg.CompactEvery > 0 {
		s.wg.Add(1)
		stop := s.stop
		go func() {
			defer s.wg.Done()
			s.cfg.DB.RunCompactor(stop, s.cfg.CompactEvery, s.cfg.Now)
		}()
	}
	return nil
}

func (s *Service) gatherLoop(stop chan struct{}) {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.GatherEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.GatherOnce(s.cfg.Now())
		}
	}
}

// GatherOnce runs one pull sweep across every input — the loop's body,
// exported so tests and benches can drive the cadence themselves.
func (s *Service) GatherOnce(timeS float64) {
	s.mu.Lock()
	inputs := s.inputs
	s.mu.Unlock()
	s.gathers.Add(1)
	for _, in := range inputs {
		if err := in.Gather(timeS); err != nil {
			s.gatherErrors.Add(1)
		}
	}
}

// Stop halts the loops, then stops every input. Idempotent.
func (s *Service) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	close(s.stop)
	inputs := s.inputs
	s.mu.Unlock()
	s.wg.Wait()
	for _, in := range inputs {
		in.Stop()
	}
}

// InputStats snapshots every input's ledger, in Add order.
func (s *Service) InputStats() []InputStats {
	s.mu.Lock()
	inputs, sinks := s.inputs, s.sinks
	s.mu.Unlock()
	out := make([]InputStats, len(inputs))
	for i, in := range inputs {
		out[i] = in.Stats()
		if i < len(sinks) && sinks[i] != nil {
			sinks[i].fill(&out[i])
		}
	}
	return out
}

// Stats aggregates every input plus the TSDB into one block.
func (s *Service) Stats() Stats {
	st := Stats{
		Gathers:      s.gathers.Load(),
		GatherErrors: s.gatherErrors.Load(),
	}
	for _, is := range s.InputStats() {
		st.Inputs++
		st.Attempts += is.Attempts
		st.Ingested += is.Ingested
		st.Dropped += is.Dropped
		st.SeqGaps += is.SeqGaps
		st.Subscriptions += is.Subscriptions
		st.Resubscribes += is.Resubscribes
	}
	if s.cfg.DB != nil {
		st.TSDB = s.cfg.DB.TSDBStats()
	}
	return st
}
