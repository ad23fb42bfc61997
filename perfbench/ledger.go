package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// traceHeader is the first line of a span file: what the spans belong to,
// and the program's own counters read after the traced episodes.
type traceHeader struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Rooms     int      `json:"rooms"`
	Workers   int      `json:"workers"`
	Steps     int      `json:"steps_per_episode"`
	Episodes  int      `json:"episodes"`
	WAL       bool     `json:"wal"`
	SnapEvery int      `json:"snapshot_every"`
	Counters  counters `json:"counters"`
	// UntracedMeanStepNs is the mean Runner.Step of the same run's untraced
	// episodes: the base of the tracing overhead.
	UntracedMeanStepNs float64 `json:"untraced_mean_step_ns"`
}

const spanColumns = "name,room,episode,step,parent,n,start_ns,end_ns"

// writeTrace writes the header and one line per span.
func writeTrace(path string, h traceHeader, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hb, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "# %s\n%s\n", hb, spanColumns)
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d\n", spanNames[s.name], s.room, s.episode, s.step, s.parent, s.n, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace parses a file writeTrace wrote.
func readTrace(path string) (traceHeader, []span, error) {
	var h traceHeader
	f, err := os.Open(path)
	if err != nil {
		return h, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "# ") {
		return h, nil, fmt.Errorf("%s: missing header", path)
	}
	if err := json.Unmarshal([]byte(sc.Text()[2:]), &h); err != nil {
		return h, nil, fmt.Errorf("%s: header: %w", path, err)
	}
	if !sc.Scan() || sc.Text() != spanColumns {
		return h, nil, fmt.Errorf("%s: missing column line", path)
	}
	kinds := map[string]uint8{}
	for i, n := range spanNames {
		kinds[n] = uint8(i)
	}
	var spans []span
	for line := 3; sc.Scan(); line++ {
		f := strings.Split(sc.Text(), ",")
		if len(f) != 8 {
			return h, nil, fmt.Errorf("%s:%d: %d fields", path, line, len(f))
		}
		kind, ok := kinds[f[0]]
		if !ok {
			return h, nil, fmt.Errorf("%s:%d: unknown span %q", path, line, f[0])
		}
		var v [7]int64
		for i := range v {
			if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
				return h, nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
		}
		spans = append(spans, span{name: kind, room: int32(v[0]), episode: int32(v[1]), step: int32(v[2]),
			parent: int32(v[3]), n: int32(v[4]), start: v[5], end: v[6]})
	}
	return h, spans, sc.Err()
}

// perLayer computes every per-layer metric from a span file's contents.
// Each step's fleet self time is its span minus the calls recorded inside
// it; a negative remainder means the ledger does not reconcile and is
// counted in trace.negative_self.
func perLayer(h traceHeader, spans []span) []row {
	var durs [spanKinds][]time.Duration
	var sums [spanKinds]float64
	childSum := make(map[int32]time.Duration)
	type decision struct {
		decide, predict, optimize time.Duration
		evals                     int32
		haveP, haveO              bool
	}
	// decisions is keyed by the step span the calls ran in.
	decisions := make(map[int32]*decision)
	for _, s := range spans {
		d := time.Duration(s.end - s.start)
		durs[s.name] = append(durs[s.name], d)
		sums[s.name] += float64(d)
		if s.parent == noParent {
			continue
		}
		childSum[s.parent] += d
		switch s.name {
		case spanDecide, spanPredict, spanOptimize:
			dc := decisions[s.parent]
			if dc == nil {
				dc = &decision{}
				decisions[s.parent] = dc
			}
			switch s.name {
			case spanDecide:
				dc.decide = d
			case spanPredict:
				dc.predict, dc.haveP = d, true
			case spanOptimize:
				dc.optimize, dc.evals, dc.haveO = d, s.n, true
			}
		}
	}

	var self, ckpt, plain, controlSelf []time.Duration
	negative := 0
	for i, s := range spans {
		if s.name != spanStep {
			continue
		}
		d := time.Duration(s.end - s.start)
		rem := d - childSum[int32(i)]
		if rem < 0 {
			negative++
		}
		self = append(self, rem)
		if h.WAL && (int(s.step)+1)%h.SnapEvery == 0 && int(s.step)+1 < h.Steps {
			ckpt = append(ckpt, d)
		} else {
			plain = append(plain, d)
		}
	}
	// A decision's self time is Decide minus its estimated model cascade
	// ((evaluations + 1) Predict calls) and its BO replay; a decision
	// without side calls (no optimisation, or a policy without model and
	// BO) is self time throughout.
	var evalsSum float64
	var optimised int
	for _, dc := range decisions {
		self := dc.decide
		if dc.haveP && dc.haveO {
			optimised++
			evalsSum += float64(dc.evals)
			self -= time.Duration(dc.evals+1)*dc.predict + dc.optimize
		}
		controlSelf = append(controlSelf, self)
	}

	us := func(d []time.Duration, q float64) float64 {
		v, _ := quantile(sortDurations(d), q)
		return float64(v) / 1e3
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	medianSeconds := func(kind uint8) float64 {
		xs := make([]float64, len(durs[kind]))
		for i, d := range durs[kind] {
			xs[i] = d.Seconds()
		}
		return median(xs)
	}
	c := h.Counters
	stores := float64(h.Episodes * h.Rooms)
	if !h.WAL {
		stores = 0
	}
	callsPerDecide := ratio(evalsSum, float64(optimised)) + 1
	if optimised == 0 {
		callsPerDecide = 0
	}
	decideP50 := us(durs[spanDecide], 0.5)
	predictP50 := us(durs[spanPredict], 0.5)
	tracedMean := ratio(sums[spanStep], float64(len(durs[spanStep])))

	values := map[string]float64{
		"testbed.advance_us_p50":      us(durs[spanAdvance], 0.5),
		"testbed.advance_us_p99":      us(durs[spanAdvance], 0.99),
		"testbed.share":               ratio(sums[spanAdvance], sums[spanStep]),
		"control.decide_us_p50":       decideP50,
		"control.decide_us_p99":       us(durs[spanDecide], 0.99),
		"control.share":               ratio(sums[spanDecide], sums[spanStep]),
		"control.decisions":           float64(len(durs[spanDecide])),
		"control.fallbacks":           float64(c.Fallbacks),
		"control.self_us_p50":         us(controlSelf, 0.5),
		"model.predict_us_p50":        predictP50,
		"model.calls_per_decide":      callsPerDecide,
		"model.est_share":             ratio(callsPerDecide*predictP50, decideP50),
		"bo.optimize_us_p50":          us(durs[spanOptimize], 0.5),
		"bo.share":                    ratio(sums[spanOptimize], sums[spanStep]),
		"bo.replay_misses":            float64(c.ReplayMisses),
		"bo.evals_per_decide":         ratio(evalsSum, float64(optimised)),
		"bo.feasible_frac":            ratio(float64(c.Feasible), float64(c.Optimizes)),
		"gateway.write_us_p50":        us(durs[spanWrite], 0.5),
		"gateway.write_us_p99":        us(durs[spanWrite], 0.99),
		"gateway.poll_us_p50":         us(durs[spanPoll], 0.5),
		"gateway.poll_us_p99":         us(durs[spanPoll], 0.99),
		"gateway.share":               ratio(sums[spanWrite]+sums[spanPoll], sums[spanStep]),
		"gateway.failed":              float64(c.GatewayFailed),
		"gateway.reconnects":          float64(c.Reconnects),
		"gateway.seq_gaps":            float64(c.SeqGaps),
		"gateway.wire_reads_per_poll": ratio(float64(c.WireReads), float64(c.Polls)),
		"fleet.ckpt_step_us_p50":      us(ckpt, 0.5),
		"fleet.plain_step_us_p50":     us(plain, 0.5),
		"fleet.self_us_p50":           us(self, 0.5),
		"fleet.worker_busy_frac":      ratio(sums[spanStep], float64(h.Workers)*float64(c.SteppingWallNs)),
		"store.finish_ms":             medianSeconds(spanFinish) * 1e3,
		"store.records":               ratio(float64(c.StoreRecords), stores),
		"store.bytes_per_step":        ratio(float64(c.StoreBytes), float64(c.StoreRecords)),
		"store.snapshots":             ratio(float64(c.StoreSnapshots), stores),
		"safety.overrides":            float64(c.Overrides),
		"safety.escalations":          float64(c.Escalations),
		"telemetry.dropped_frac":      ratio(float64(c.QueueDropped), float64(c.QueuePushed)),
		"setup.prepare_s":             medianSeconds(spanPrepare),
		"setup.runner_s":              medianSeconds(spanRunners),
		"setup.fieldbus_s":            medianSeconds(spanFieldbus),
		"trace.overhead_pct":          100 * (ratio(tracedMean, h.UntracedMeanStepNs) - 1),
		"trace.negative_self":         float64(negative),
	}
	samples := map[string][]time.Duration{
		"testbed.advance_us_p99": durs[spanAdvance],
		"control.decide_us_p99":  durs[spanDecide],
		"gateway.write_us_p99":   durs[spanWrite],
		"gateway.poll_us_p99":    durs[spanPoll],
	}
	rows := make([]row, 0, len(perLayerDefs))
	for _, d := range perLayerDefs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: per-layer metric without a value: " + d.name)
		}
		r := row{Name: d.name, Value: v, Unit: d.unit, Better: d.better, Listed: d.listed}
		if s := samples[d.name]; len(s) > 0 {
			_, r.Beyond = quantile(sortDurations(s), 0.99)
			r.Samples = len(s)
		}
		rows = append(rows, r)
	}
	return rows
}
