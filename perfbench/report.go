package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef is one reported metric. The end-to-end and per-layer tables
// below are the single source of the names, units and directions that
// BENCHMARK.json repeats; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// listed metrics are the ones BENCHMARK.json names and the one-line
	// result carries. A metric that reads 0 on some workload is printed and
	// kept in the envelope but not listed: an end-to-end bound is a share of
	// the median, and a time that is 0 on every run is no measurement.
	listed bool
}

// endToEnd are the metrics a user of the room engine sees, measured with
// tracing off. cooling_kwh, tsv_pct and ci_pct are simulated and repeat
// exactly for a seed; the rest are host measurements. TESLA keeps the cold
// aisle safe and the ACU running, so tsv_pct and ci_pct read 0 on
// tesla-durable, and failed_frac reads 0 on a healthy run; the one-line
// result still carries failures as its attempted and failed counts.
// step_p99_ms is printed with its sample counts but not listed: on a small
// shared host, preemption sets the tail, and its run-to-run spread is as
// wide as the largest bound a listed metric may have.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", true},
	{"step_p50_ms", "ms", "lower", true},
	{"step_p99_ms", "ms", "lower", false},
	{"steps_per_s", "1/s", "higher", true},
	{"allocs_per_step", "count", "lower", true},
	{"peak_heap_mb", "MB", "lower", true},
	{"cooling_kwh", "kWh", "lower", true},
	{"tsv_pct", "%", "lower", false},
	{"ci_pct", "%", "lower", false},
	{"failed_frac", "ratio", "lower", false},
}

// perLayerDefs are computed from the traced run's span file. The timings
// of layers that only some workloads reach (the model and BO side calls,
// the field bus, checkpoints, Prepare) are printed but not listed.
var perLayerDefs = []metricDef{
	{"testbed.advance_us_p50", "us", "lower", true},
	{"testbed.advance_us_p99", "us", "lower", true},
	{"testbed.share", "ratio", "lower", true},
	{"control.decide_us_p50", "us", "lower", true},
	{"control.decide_us_p99", "us", "lower", true},
	{"control.share", "ratio", "lower", true},
	{"control.decisions", "count", "higher", true},
	{"control.fallbacks", "count", "lower", true},
	{"control.self_us_p50", "us", "lower", true},
	{"model.predict_us_p50", "us", "lower", false},
	{"model.calls_per_decide", "count", "lower", true},
	{"model.est_share", "ratio", "lower", true},
	{"bo.optimize_us_p50", "us", "lower", false},
	{"bo.share", "ratio", "lower", true},
	{"bo.replay_misses", "count", "lower", true},
	{"bo.evals_per_decide", "count", "lower", true},
	{"bo.feasible_frac", "ratio", "higher", true},
	{"gateway.write_us_p50", "us", "lower", false},
	{"gateway.write_us_p99", "us", "lower", false},
	{"gateway.poll_us_p50", "us", "lower", false},
	{"gateway.poll_us_p99", "us", "lower", false},
	{"gateway.share", "ratio", "lower", true},
	{"gateway.failed", "count", "lower", true},
	{"gateway.reconnects", "count", "lower", true},
	{"gateway.seq_gaps", "count", "lower", true},
	{"gateway.wire_reads_per_poll", "ratio", "lower", true},
	{"fleet.ckpt_step_us_p50", "us", "lower", false},
	{"fleet.plain_step_us_p50", "us", "lower", true},
	{"fleet.self_us_p50", "us", "lower", true},
	{"fleet.worker_busy_frac", "ratio", "higher", true},
	{"store.finish_ms", "ms", "lower", true},
	{"store.records", "count", "lower", true},
	{"store.bytes_per_step", "B", "lower", true},
	{"store.snapshots", "count", "lower", true},
	{"safety.overrides", "count", "lower", true},
	{"safety.escalations", "count", "lower", true},
	{"telemetry.dropped_frac", "ratio", "lower", true},
	{"setup.prepare_s", "s", "lower", false},
	{"setup.runner_s", "s", "lower", true},
	{"setup.fieldbus_s", "s", "lower", false},
	{"trace.overhead_pct", "%", "lower", true},
	{"trace.negative_self", "count", "lower", true},
}

// quantile is the nearest-rank q-quantile of sorted and how many samples lie
// beyond it.
func quantile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], len(sorted) - 1 - i
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapSampler records the peak HeapInuse (heap object bytes plus unused
// heap span bytes) every few milliseconds, without stopping the world.
type heapSampler struct {
	stop, done chan struct{}
	peak       atomic.Uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		v := samples[0].Value.Uint64() + samples[1].Value.Uint64()
		for {
			old := h.peak.Load()
			if v <= old || h.peak.CompareAndSwap(old, v) {
				return
			}
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Take returns the peak in bytes since the previous Take and starts a new
// one.
func (h *heapSampler) Take() uint64 { return h.peak.Swap(0) }

// Stop ends sampling.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{CPU: runtime.GOARCH, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// row is one reported metric with its provenance.
type row struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// Samples and Beyond give a percentile's sample count and how many
	// samples lie beyond it.
	Samples int `json:"samples,omitempty"`
	Beyond  int `json:"samples_beyond,omitempty"`
	// Listed is false for metrics the one-line result leaves out.
	Listed bool `json:"listed"`
}

// envelope is the full record of one run, written next to the trace file.
type envelope struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Host       host     `json:"host"`
	Commit     string   `json:"commit"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Rooms      int      `json:"rooms"`
	Workers    int      `json:"workers"`
	Steps      int      `json:"steps_per_episode"`
	Episodes   int      `json:"episodes"`
	Correct    bool     `json:"correct"`
	Failures   []string `json:"failed_checks,omitempty"`
	Attempted  uint64   `json:"attempted"`
	Failed     uint64   `json:"failed"`
	Metrics    []row    `json:"metrics"`
	TraceFile  string   `json:"trace_file,omitempty"`
	ResultFile string   `json:"-"`
}

// lastLine is the one-line result every run ends its standard output with.
type lastLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]lastLineValue `json:"metrics"`
}

type lastLineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human table, then the one-line result, and stores the
// envelope.
func (e *envelope) write(w io.Writer) error {
	fmt.Fprintf(w, "perfbench %s seed=%d traced=%v rooms=%d workers=%d steps/episode=%d episodes=%d host=%q gomaxprocs=%d %s commit=%s\n",
		e.Workload, e.Seed, e.Traced, e.Rooms, e.Workers, e.Steps, e.Episodes, e.Host.CPU, e.Host.GOMAXPROCS, e.Host.Go, e.Commit)
	for _, f := range e.Failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	ll := lastLine{Correct: e.Correct, Attempted: e.Attempted, Failed: e.Failed, Metrics: map[string]lastLineValue{}}
	for _, r := range e.Metrics {
		extra := ""
		if r.Samples > 0 {
			extra = fmt.Sprintf("  (n=%d, %d beyond)", r.Samples, r.Beyond)
		}
		if !r.Listed {
			extra += "  (printed only)"
		}
		fmt.Fprintf(w, "  %-28s %16.6g %-6s %s is better%s\n", r.Name, r.Value, r.Unit, r.Better, extra)
		if r.Listed {
			ll.Metrics[r.Name] = lastLineValue{Value: r.Value, Unit: r.Unit}
		}
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(e.ResultFile, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "envelope: %s\n", e.ResultFile)
	if b, err = json.Marshal(ll); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
