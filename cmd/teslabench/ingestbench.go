package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"tesla/internal/ingest"
	"tesla/internal/telemetry"
)

// The ingest harness drives the telemetry ingest pipeline at production
// volume. Every row carries its own exactness verdict: the harness does not
// just measure, it asserts the pipeline's ledgers — attempts == ingested +
// dropped at the ingest layer, inserted == raw + compacted at the storage
// layer, received + gaps == resume point per subscription, and bit-identical
// downsampled tiers — and fails the run if any of them break under load.

// ingestBenchConfig sizes each stage of the ingest harness.
type ingestBenchConfig struct {
	AppendSamples uint64 `json:"append_samples"`
	// MinAppendPerSec is the append-path throughput floor; a slower run
	// fails the harness.
	MinAppendPerSec  float64 `json:"min_append_per_sec"`
	WireBatches      int     `json:"wire_batches"`
	WireBatchLines   int     `json:"wire_batch_lines"`
	SubscribeRecords uint64  `json:"subscribe_records"`
}

var defaultIngestBench = ingestBenchConfig{
	AppendSamples: 4_000_000, MinAppendPerSec: 1e6,
	WireBatches: 2000, WireBatchLines: 512, SubscribeRecords: 100_000,
}

// ingestAppendRow is the headline: sustained single-core append throughput
// through pre-resolved series refs with the compactor folding tiers the
// whole time, peak heap sampled concurrently, and the run's ledger.
type ingestAppendRow struct {
	Stage         string  `json:"stage"`
	Series        int     `json:"series"`
	Samples       uint64  `json:"samples"`
	Seconds       float64 `json:"seconds"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	Compactions   uint64  `json:"compactions"`
	RawCompacted  uint64  `json:"raw_compacted"`
	RawLive       int     `json:"raw_live"`

	Attempts    uint64 `json:"attempts"`
	Ingested    uint64 `json:"ingested"`
	Dropped     uint64 `json:"dropped"`
	Inserted    uint64 `json:"inserted"`
	LateDropped uint64 `json:"late_dropped"`
	LedgersOK   bool   `json:"ledgers_ok"`
}

// ledger checks the append run's accounting at the ingest and storage
// layers and across them, and that the compactor was active throughout.
func (r ingestAppendRow) ledger() error {
	if r.Attempts != r.Ingested+r.Dropped || r.Attempts != r.Samples {
		return fmt.Errorf("append ledger broken: attempts %d ingested %d dropped %d (samples %d)",
			r.Attempts, r.Ingested, r.Dropped, r.Samples)
	}
	if r.Inserted != uint64(r.RawLive)+r.RawCompacted {
		return fmt.Errorf("tsdb ledger broken: inserted %d != raw %d + compacted %d",
			r.Inserted, r.RawLive, r.RawCompacted)
	}
	if r.Inserted+r.LateDropped != r.Ingested {
		return fmt.Errorf("cross-layer ledger broken: inserted %d + late %d != sink ingested %d",
			r.Inserted, r.LateDropped, r.Ingested)
	}
	if r.Compactions == 0 || r.RawCompacted == 0 {
		return fmt.Errorf("compactor idle during append run: %d compactions, %d raw folded", r.Compactions, r.RawCompacted)
	}
	return nil
}

// ingestWireRow is the wire-decode path: line-protocol batches through
// IngestBatch, the route HTTP-posted samples take.
type ingestWireRow struct {
	Stage       string  `json:"stage"`
	BatchLines  int     `json:"batch_lines"`
	Lines       uint64  `json:"lines"`
	LinesPerSec float64 `json:"lines_per_sec"`
}

// ingestSubscribeRow is the streaming path end to end over loopback TCP:
// publisher → delta ring → subscriber → sink → TSDB.
type ingestSubscribeRow struct {
	Stage         string  `json:"stage"`
	Published     uint64  `json:"published"`
	Received      uint64  `json:"received"`
	Gaps          uint64  `json:"seq_gaps"`
	Resubscribes  uint64  `json:"resubscribes"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// ingestDownsampleRow records the bit-identity check: tiers produced by the
// compactor vs the same aggregation recomputed from the raw stream.
type ingestDownsampleRow struct {
	Stage         string `json:"stage"`
	RawPoints     int    `json:"raw_points"`
	MinuteBuckets int    `json:"minute_buckets"`
	HourBuckets   int    `json:"hour_buckets"`
	BitIdentical  bool   `json:"bit_identical"`
}

// ingestRetention compresses the tiers so compaction is continuously active
// at bench timescales: raw is held 1s of sample time, minute buckets span
// 100ms, hour buckets 1s.
func ingestRetention() telemetry.RetentionConfig {
	return telemetry.RetentionConfig{
		RawWindowS:    1,
		MinuteWindowS: 10,
		MinuteS:       0.1,
		HourS:         1,
	}
}

// heapSampler polls runtime.MemStats and tracks the peak heap until stopped.
func heapSampler() (peakMB func() float64, stop func()) {
	var peak atomic.Uint64
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	return func() float64 { return float64(peak.Load()) / (1 << 20) },
		func() { close(done); <-finished }
}

// runIngestAppend measures the append fast path: one writer, nSeries
// round-robin refs, sample time advancing 1ms per append, the compactor
// folding raw → minute → hour concurrently off a clock that follows the
// writer's high-water mark.
func runIngestAppend(samples uint64, nSeries int) (ingestAppendRow, error) {
	db := telemetry.NewDBWithRetention(ingestRetention())
	sink := ingest.NewSink(db)
	refs := make([]telemetry.SeriesRef, nSeries)
	for i := range refs {
		refs[i] = db.Ref("bench", map[string]string{"sensor": fmt.Sprint(i)})
	}
	var clock atomic.Uint64 // appended samples; sample time = n/1000
	stopCompact := make(chan struct{})
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		db.RunCompactor(stopCompact, 5*time.Millisecond, func() float64 {
			return float64(clock.Load()) / 1000
		})
	}()
	peakMB, stopHeap := heapSampler()

	start := time.Now()
	for i := uint64(0); i < samples; i++ {
		t := float64(i) / 1000
		sink.AddRef(refs[i%uint64(nSeries)], telemetry.Point{TimeS: t, Value: float64(i % 4096)})
		if i%4096 == 0 {
			clock.Store(i)
		}
	}
	clock.Store(samples)
	elapsed := time.Since(start).Seconds()
	close(stopCompact)
	<-compactDone
	stopHeap()

	row := ingestAppendRow{
		Stage:         "append",
		Series:        nSeries,
		Samples:       samples,
		Seconds:       elapsed,
		SamplesPerSec: float64(samples) / elapsed,
		PeakHeapMB:    peakMB(),
	}
	st := db.TSDBStats()
	row.Compactions = st.Compactions
	row.RawCompacted = st.RawCompacted
	row.RawLive = st.RawPoints
	row.Attempts, row.Ingested, row.Dropped = sink.Counts()
	row.Inserted, row.LateDropped = st.Inserted, st.LateDropped
	if err := row.ledger(); err != nil {
		return row, err
	}
	row.LedgersOK = true
	return row, nil
}

// runIngestWire measures the batched line-protocol decode path.
func runIngestWire(batches int, batchLines int) (ingestWireRow, error) {
	var sb strings.Builder
	for i := 0; i < batchLines; i++ {
		fmt.Fprintf(&sb, "acu,device=d%d power_kw=%d.5 %d\n", i%64, i%7, i)
	}
	batch := sb.String()
	db := telemetry.NewDB()
	sink := ingest.NewSink(db)
	start := time.Now()
	for i := 0; i < batches; i++ {
		if _, rej, err := sink.AddLines(batch); rej != 0 || err != nil {
			return ingestWireRow{}, fmt.Errorf("wire batch rejected %d: %v", rej, err)
		}
	}
	elapsed := time.Since(start).Seconds()
	lines := uint64(batches) * uint64(batchLines)
	attempts, ingested, dropped := sink.Counts()
	if attempts != ingested+dropped || ingested != lines {
		return ingestWireRow{}, fmt.Errorf("wire ledger broken: %d/%d/%d for %d lines", attempts, ingested, dropped, lines)
	}
	return ingestWireRow{
		Stage:       "wire",
		BatchLines:  batchLines,
		Lines:       lines,
		LinesPerSec: float64(lines) / elapsed,
	}, nil
}

// runIngestSubscribe measures the streaming path end to end: a publisher
// feeding a StreamServer's delta ring, a SubscribeInput decoding frames
// over loopback TCP into the TSDB. Ring sized over the whole run, so the
// run must be lossless and gap-free — asserted, not assumed.
func runIngestSubscribe(records uint64) (ingestSubscribeRow, error) {
	srv, err := ingest.NewStreamServer("127.0.0.1:0", ingest.StreamServerConfig{
		Retain:    int(records),
		Heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		return ingestSubscribeRow{}, err
	}
	defer srv.Close()
	db := telemetry.NewDB()
	in := ingest.NewSubscribeInput([]string{srv.Addr()}, ingest.SubscribeConfig{})
	sink := ingest.NewSink(db)
	if err := in.Start(sink); err != nil {
		return ingestSubscribeRow{}, err
	}
	defer in.Stop()

	start := time.Now()
	for i := uint64(0); i < records; i++ {
		srv.Publish(fmt.Sprintf("stream,src=bench v=%d %d.%03d", i%4096, i/1000, i%1000))
	}
	deadline := time.Now().Add(60 * time.Second)
	for in.SubStats()[0].LastSeq != srv.Head() {
		if time.Now().After(deadline) {
			return ingestSubscribeRow{}, fmt.Errorf("subscriber stalled at %d of %d", in.SubStats()[0].LastSeq, srv.Head())
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start).Seconds()

	s := in.SubStats()[0]
	row := ingestSubscribeRow{
		Stage:         "subscribe",
		Published:     records,
		Received:      s.Received,
		Gaps:          s.Gaps,
		Resubscribes:  s.Resubscribes,
		RecordsPerSec: float64(records) / elapsed,
	}
	if s.Received+s.Gaps != s.LastSeq {
		return row, fmt.Errorf("subscription ledger broken: received %d + gaps %d != lastSeq %d", s.Received, s.Gaps, s.LastSeq)
	}
	if s.Gaps != 0 || s.Received != records {
		return row, fmt.Errorf("lossless subscribe run lost records: %+v", s)
	}
	attempts, ingested, dropped := sink.Counts()
	if attempts != ingested+dropped || ingested != records {
		return row, fmt.Errorf("subscribe sink ledger broken: %d/%d/%d", attempts, ingested, dropped)
	}
	if uint64(db.Len()) != records {
		return row, fmt.Errorf("stored %d points for %d records", db.Len(), records)
	}
	return row, nil
}

// runIngestDownsample checks tier bit-identity under a deterministic
// stream: the compactor's minute and hour buckets must equal the same
// aggregation recomputed directly from the raw points — exact float
// equality, not tolerance.
func runIngestDownsample(n int) (ingestDownsampleRow, error) {
	rc := ingestRetention()
	db := telemetry.NewDBWithRetention(rc)
	ref := db.Ref("ds", map[string]string{"sensor": "0"})
	pts := make([]telemetry.Point, n)
	for i := range pts {
		// Deterministic, non-monotonic values with awkward float sums.
		pts[i] = telemetry.Point{TimeS: float64(i) * 0.005, Value: math.Sin(float64(i)*0.7) * 100}
		ref.Append(pts[i])
	}
	nowS := pts[n-1].TimeS
	db.Compact(nowS)

	got := db.QueryAgg(telemetry.TierMinute, "ds", map[string]string{"sensor": "0"}, -math.MaxFloat64, math.MaxFloat64)
	gotHour := db.QueryAgg(telemetry.TierHour, "ds", map[string]string{"sensor": "0"}, -math.MaxFloat64, math.MaxFloat64)
	row := ingestDownsampleRow{Stage: "downsample", RawPoints: n, MinuteBuckets: len(got), HourBuckets: len(gotHour)}

	// Recompute the minute tier from the raw stream, in time order.
	cut := math.Floor((nowS-rc.RawWindowS)/rc.MinuteS) * rc.MinuteS
	var want []telemetry.AggPoint
	for _, p := range pts {
		if p.TimeS >= cut {
			break
		}
		b := math.Floor(p.TimeS/rc.MinuteS) * rc.MinuteS
		if len(want) == 0 || want[len(want)-1].TimeS != b {
			want = append(want, telemetry.AggPoint{TimeS: b, Min: p.Value, Max: p.Value})
		}
		w := &want[len(want)-1]
		if p.Value < w.Min {
			w.Min = p.Value
		}
		if p.Value > w.Max {
			w.Max = p.Value
		}
		w.Sum += p.Value
		w.Count++
	}
	// The hour tier folds minute buckets older than the minute window; with
	// MinuteWindowS larger than this run none fold, so the minute tier is
	// the whole comparison surface. Recompute hour from minute for the
	// general case anyway.
	hcut := math.Floor((nowS-rc.MinuteWindowS)/rc.HourS) * rc.HourS
	var wantHour []telemetry.AggPoint
	remaining := want[:0:0]
	for _, m := range want {
		if m.TimeS < hcut {
			b := math.Floor(m.TimeS/rc.HourS) * rc.HourS
			if len(wantHour) == 0 || wantHour[len(wantHour)-1].TimeS != b {
				wantHour = append(wantHour, telemetry.AggPoint{TimeS: b, Min: m.Min, Max: m.Max})
				wantHour[len(wantHour)-1].Sum = m.Sum
				wantHour[len(wantHour)-1].Count = m.Count
				continue
			}
			h := &wantHour[len(wantHour)-1]
			if m.Min < h.Min {
				h.Min = m.Min
			}
			if m.Max > h.Max {
				h.Max = m.Max
			}
			h.Sum += m.Sum
			h.Count += m.Count
		} else {
			remaining = append(remaining, m)
		}
	}
	want = remaining

	eq := func(a, b []telemetry.AggPoint) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	row.BitIdentical = eq(got, want) && eq(gotHour, wantHour)
	if !row.BitIdentical {
		return row, fmt.Errorf("downsampled tiers not bit-identical to recomputation (minute %d vs %d, hour %d vs %d buckets)",
			len(got), len(want), len(gotHour), len(wantHour))
	}
	return row, nil
}

// runIngestBench runs every stage and returns one row per stage.
func runIngestBench(w io.Writer, c ingestBenchConfig) ([]any, error) {
	fmt.Fprintf(w, "ingest pipeline benchmarks (%d append samples)\n\n", c.AppendSamples)
	app, err := runIngestAppend(c.AppendSamples, 64)
	if err != nil {
		return nil, err
	}
	if app.SamplesPerSec < c.MinAppendPerSec {
		return nil, fmt.Errorf("append path sustained %.0f samples/s, want >= %.0f", app.SamplesPerSec, c.MinAppendPerSec)
	}
	fmt.Fprintf(w, "  append    %8.0f samples/s  (%d series, peak heap %.1f MB, %d compactions, %d raw folded)\n",
		app.SamplesPerSec, app.Series, app.PeakHeapMB, app.Compactions, app.RawCompacted)

	wire, err := runIngestWire(c.WireBatches, c.WireBatchLines)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  wire      %8.0f lines/s    (%d-line batches)\n", wire.LinesPerSec, wire.BatchLines)

	sub, err := runIngestSubscribe(c.SubscribeRecords)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  subscribe %8.0f records/s  (loopback, %d records, %d gaps, %d resubscribes)\n",
		sub.RecordsPerSec, sub.Published, sub.Gaps, sub.Resubscribes)

	ds, err := runIngestDownsample(50_000)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  tiers     bit-identical over %d raw points (%d minute, %d hour buckets)\n",
		ds.RawPoints, ds.MinuteBuckets, ds.HourBuckets)
	fmt.Fprintf(w, "  ledgers   exact at every layer\n")
	return []any{app, wire, sub, ds}, nil
}
