// Command perfbench is the repository's end-to-end benchmark: it drives the
// real room engine (fleet.Runner) on one workload for a fixed time, checks
// that what the engine produced is correct, and prints every end-to-end
// metric, or with --trace 1 every per-layer metric, ending with a one-line
// JSON result. See BENCHMARK.json at the repository root for the workloads,
// the metrics and which layer should move which metric on which workload.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload tesla-durable --seed 1 --seconds 20 --trace 0
//
// Each run sets up, then repeats episodes: build every room (NewRunner:
// plant, supervised policy, warm-up, and on the durable workload a fresh
// store; on the field-bus workload also each room's Modbus path), step all
// rooms through their horizon on a worker pool of at most GOMAXPROCS,
// finish them. The k-th episode of a run uses the fleet seed
// rng.SeedFor(seed, k). After the measured episodes, a traced episode
// (untraced runs) must reproduce the trajectories of the untraced episode
// of the same seed, or every traced episode must (traced runs); on the
// field-bus workload so must an in-process run of the same rooms with the
// same set-point quantisation. Any failed check exits non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tesla/internal/experiment"
)

func main() {
	start := time.Now()
	err := run(os.Args[1:], os.Stdout, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errChecks reports that a run completed but a correctness check failed.
var errChecks = errors.New("correctness checks failed")

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", 1, "fleet seed every room's seeds derive from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for WALs, span files and result envelopes")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return o, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout io.Writer, processStart time.Time) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	walRoot, err := os.MkdirTemp(o.out, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)

	pl := newPlan(w, o.seed, runtime.GOMAXPROCS(0), walRoot, processStart)
	r := &runner{pl: pl, traced: o.trace == 1, seconds: time.Duration(o.seconds * float64(time.Second))}
	env, err := r.measure()
	if err != nil {
		return err
	}
	env.Seconds = o.seconds
	env.ResultFile = filepath.Join(o.out, fmt.Sprintf("result-%s-trace%d.json", w.name, o.trace))
	if r.traced {
		env.TraceFile = filepath.Join(o.out, fmt.Sprintf("trace-%s.csv", w.name))
		if err := r.ledger(env); err != nil {
			return err
		}
	}
	if err := env.write(stdout); err != nil {
		return err
	}
	if !env.Correct {
		return errChecks
	}
	return nil
}

func newPlan(w workload, seed uint64, workers int, walRoot string, epoch time.Time) *plan {
	rooms := w.rooms
	if rooms == 0 {
		rooms = workers
	}
	if workers > rooms {
		workers = rooms
	}
	return &plan{w: w, seed: seed, rooms: rooms, workers: workers, steps: w.steps, walRoot: walRoot, epoch: epoch}
}

// runner holds one run's episodes.
type runner struct {
	pl      *plan
	traced  bool
	seconds time.Duration

	prepare  []time.Duration
	setup    *probe // run-level spans: Prepare
	timed    []*episodeResult
	tracedEp []*episodeResult
	ref      *episodeResult // field-bus workload: in-process reference
	heap     *heapSampler   // measures each untraced episode's peak heap
	checks   []string
	ran      int // episodes run so far
}

func (r *runner) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// prepareArtifacts runs experiment.Prepare, the TESLA workload's set-up.
func (r *runner) prepareArtifacts() error {
	if r.pl.w.policy != "tesla" {
		return nil
	}
	start, t := r.setup.now(), time.Now()
	a, err := experiment.Prepare(experiment.CIScale(), false)
	if err != nil {
		return err
	}
	r.prepare = append(r.prepare, time.Since(t))
	r.setup.spans = append(r.setup.spans, span{name: spanPrepare, room: noRoom, step: -1, episode: -1,
		parent: noParent, start: start, end: r.setup.now()})
	r.pl.art = a
	return nil
}

// episodes runs a phase of episodes in mode m until the deadline has
// passed and at least minEpisodes episodes and minSamples room-steps are done. The
// phase's k-th episode uses episodeSeed(k).
func (r *runner) episodes(m mode, deadline time.Time, minEpisodes, minSamples int) ([]*episodeResult, error) {
	var out []*episodeResult
	samples := 0
	for len(out) < minEpisodes || samples < minSamples || time.Now().Before(deadline) {
		er, err := r.pl.episode(r.ran, r.pl.episodeSeed(len(out)), m)
		if err != nil {
			return nil, err
		}
		r.ran++
		if r.heap != nil {
			er.peakHeap = r.heap.Take()
		}
		out = append(out, er)
		samples += len(er.lat)
	}
	return out, nil
}

// measure runs set-up, the measured episodes and the verification episodes.
func (r *runner) measure() (*envelope, error) {
	pl := r.pl
	r.setup = &probe{epoch: pl.epoch, room: noRoom}
	trials := setupTrials
	if r.traced {
		trials = 1
	}
	for i := 0; i < trials; i++ {
		if err := r.prepareArtifacts(); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	untraced, traced := mode{}, mode{traced: true}
	start := time.Now()
	var err error
	if !r.traced {
		r.heap = startHeapSampler(5 * time.Millisecond)
		r.timed, err = r.episodes(untraced, start.Add(r.seconds), 1, minStepSamples)
		r.heap.Stop()
		r.heap = nil
		if err != nil {
			return nil, err
		}
		r.tracedEp, err = r.episodes(traced, time.Time{}, 1, 0)
	} else {
		// A quarter of the time measures the untraced base of the tracing
		// overhead; the rest is traced.
		r.timed, err = r.episodes(untraced, start.Add(r.seconds/4), 1, 0)
		if err == nil {
			r.tracedEp, err = r.episodes(traced, start.Add(r.seconds), 1, 0)
		}
	}
	if err != nil {
		return nil, err
	}
	if pl.w.wire {
		ref, err := r.episodes(mode{reference: true}, time.Time{}, 1, 0)
		if err != nil {
			return nil, err
		}
		r.ref = ref[0]
	}
	r.check()
	return r.envelope(), nil
}

// check collects every episode's own checks and compares the trajectories
// of each traced and reference episode with the untraced episode of the
// same seed.
func (r *runner) check() {
	var ref []*episodeResult
	if r.ref != nil {
		ref = []*episodeResult{r.ref}
	}
	for _, ers := range [][]*episodeResult{r.timed, r.tracedEp, ref} {
		for _, er := range ers {
			r.checks = append(r.checks, er.checks...)
		}
	}
	compare := func(label string, ers []*episodeResult) {
		for k, er := range ers[:min(len(ers), len(r.timed))] {
			for i, res := range er.results {
				b := r.timed[k].results[i]
				if res.TrajectoryHash != b.TrajectoryHash || res.CEkWh != b.CEkWh ||
					res.TrueTSVFrac != b.TrueTSVFrac || res.CIFrac != b.CIFrac {
					r.fail("%s episode %d room %s: trajectory %016x differs from untraced %016x", label, k, res.Name, res.TrajectoryHash, b.TrajectoryHash)
				}
			}
		}
	}
	compare("traced", r.tracedEp)
	compare("in-process reference", ref)
}

func (r *runner) envelope() *envelope {
	pl := r.pl
	env := &envelope{
		Workload: pl.w.name, Why: pl.w.why, Host: hostInfo(), Commit: commit(), Seed: pl.seed,
		Traced: r.traced, Rooms: pl.rooms, Workers: pl.workers, Steps: pl.steps,
	}
	measured := r.timed
	if r.traced {
		measured = r.tracedEp
	}
	env.Episodes = len(measured)
	var c counters
	for _, er := range measured {
		c.add(er.c)
	}
	env.Attempted, env.Failed = c.RoomSteps, c.FailedRoomSteps
	if !r.traced {
		env.Metrics = r.endToEnd()
	}
	env.Failures = r.checks
	env.Correct = len(r.checks) == 0
	return env
}

// endToEnd computes the untraced metrics.
func (r *runner) endToEnd() []row {
	var lat []time.Duration
	var mallocs uint64
	var c counters
	rates := make([]float64, len(r.timed))
	heaps := make([]float64, len(r.timed))
	for i, er := range r.timed {
		lat = append(lat, er.lat...)
		mallocs += er.mallocs
		c.add(er.c)
		rates[i] = float64(len(er.lat)) / er.wall.Seconds()
		heaps[i] = float64(er.peakHeap) / (1 << 20)
	}
	sorted := sortDurations(lat)
	p50, _ := quantile(sorted, 0.5)
	p99, beyond := blockP99(r.timed)
	if beyond < 10 {
		r.fail("step_p99_ms has %d samples beyond it, want at least 10", beyond)
	}
	// Set-up is Prepare (run setupTrials times) plus building the rooms and
	// their field path, which every episode repeats; each part is a median.
	prepare := make([]float64, len(r.prepare))
	for i, d := range r.prepare {
		prepare[i] = d.Seconds()
	}
	rooms := make([]float64, len(r.timed))
	for i, er := range r.timed {
		rooms[i] = (er.setupRunners + er.setupFieldbus).Seconds()
	}
	var kwh, tsv, ci float64
	res := r.timed[0].results
	for _, rr := range res {
		kwh += rr.CEkWh
		tsv += rr.TrueTSVFrac
		ci += rr.CIFrac
	}
	n := float64(len(res))
	values := map[string]float64{
		"setup_s":         median(prepare) + median(rooms),
		"step_p50_ms":     float64(p50) / 1e6,
		"step_p99_ms":     float64(p99) / 1e6,
		"steps_per_s":     median(rates),
		"allocs_per_step": float64(mallocs) / float64(len(lat)),
		"peak_heap_mb":    median(heaps),
		"cooling_kwh":     kwh / n,
		"tsv_pct":         100 * tsv / n,
		"ci_pct":          100 * ci / n,
		"failed_frac":     float64(c.FailedRoomSteps) / float64(c.RoomSteps),
	}
	rows := make([]row, 0, len(endToEnd))
	for _, d := range endToEnd {
		rw := row{Name: d.name, Value: values[d.name], Unit: d.unit, Better: d.better, Listed: d.listed}
		switch d.name {
		case "step_p50_ms":
			rw.Samples, rw.Beyond = len(sorted), len(sorted)/2
		case "step_p99_ms":
			rw.Samples, rw.Beyond = len(sorted), beyond
		}
		rows = append(rows, rw)
	}
	return rows
}

// blockP99 is the median, over blocks of consecutive episodes holding at
// least minStepSamples room-steps each, of the block's 99th percentile step,
// and the fewest samples any block has beyond its percentile. Host noise
// comes in bursts shorter than a run; a median over blocks keeps one burst
// from setting the run's tail. Episodes left over after the last full block
// join it.
func blockP99(eps []*episodeResult) (time.Duration, int) {
	var blocks [][]time.Duration
	var cur []time.Duration
	for _, er := range eps {
		cur = append(cur, er.lat...)
		if len(cur) >= minStepSamples {
			blocks, cur = append(blocks, cur), nil
		}
	}
	if len(blocks) == 0 {
		blocks = append(blocks, nil)
	}
	blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	p99s := make([]float64, len(blocks))
	fewest := -1
	for i, b := range blocks {
		v, beyond := quantile(sortDurations(b), 0.99)
		p99s[i] = float64(v)
		if fewest < 0 || beyond < fewest {
			fewest = beyond
		}
	}
	return time.Duration(median(p99s)), fewest
}

// ledger writes the traced episodes' spans, reads the file back and adds
// the per-layer metrics computed from it.
func (r *runner) ledger(env *envelope) error {
	pl := r.pl
	var spans []span
	spans = appendSpans(spans, r.setup.spans)
	h := traceHeader{Workload: pl.w.name, Seed: pl.seed, Rooms: pl.rooms, Workers: pl.workers,
		Steps: pl.steps, Episodes: len(r.tracedEp), WAL: pl.w.wal, SnapEvery: snapEvery}
	for _, er := range r.tracedEp {
		spans = appendSpans(spans, er.spans)
		er.spans = nil
		h.Counters.add(er.c)
	}
	var untraced time.Duration
	var n int
	for _, er := range r.timed {
		for _, d := range er.lat {
			untraced += d
		}
		n += len(er.lat)
	}
	h.UntracedMeanStepNs = float64(untraced) / float64(n)
	if err := writeTrace(env.TraceFile, h, spans); err != nil {
		return err
	}
	h, spans, err := readTrace(env.TraceFile)
	if err != nil {
		return err
	}
	env.Metrics = perLayer(h, spans)
	for _, m := range env.Metrics {
		if m.Name == "trace.negative_self" && m.Value > 0 {
			env.Failures = append(env.Failures, fmt.Sprintf("%g room-steps have a negative fleet.self remainder", m.Value))
			env.Correct = false
		}
	}
	return nil
}
