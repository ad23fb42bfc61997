// Package telemetry reproduces the paper's observability stack (§4) at
// production volume: a time-series store with InfluxDB-style line protocol
// ingestion, range queries served over HTTP, tiered downsampling retention
// (raw → 1-min → 1-hour), and a polling collector that scrapes the simulated
// testbed the way Telegraf scrapes servers and Modbus devices.
//
// The production TESLA deployment decouples data collection from control
// through this layer — producers push testbed telemetry into the store and
// the consumer (the controller) reads it back. The observability example and
// the integration tests wire the full loop over real TCP sockets using only
// the standard library.
//
// Storage engine. Each series stores its points in a list of time-ordered,
// non-overlapping chunks. In-order appends (the overwhelmingly common case —
// sensors emit monotone timestamps) are O(1): extend the last chunk, split
// when full. Out-of-order inserts binary-search the chunk list and shift
// within one bounded chunk, never the whole series. Range queries binary
// search the chunk boundaries and copy only the matching window; Latest is
// O(1) off a per-series cache. A global lock guards the series map; each
// series carries its own lock, so concurrent writers to different series do
// not serialize.
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Point is one sample of one series.
type Point struct {
	TimeS float64
	Value float64
}

// chunkSize bounds one chunk: the shift cost of an out-of-order insert and
// the copy granularity of compaction.
const chunkSize = 512

// seriesKey identifies a series by measurement and canonicalized tag string.
type seriesKey struct {
	measurement string
	tags        string
}

// chunk is one sorted run of points. Chunks of a series are time-ordered and
// non-overlapping: chunk i's last timestamp <= chunk i+1's first.
type chunk struct {
	pts []Point
}

func (c *chunk) minT() float64 { return c.pts[0].TimeS }
func (c *chunk) maxT() float64 { return c.pts[len(c.pts)-1].TimeS }

// memSeries is one series' storage plus its slice of the retention state.
type memSeries struct {
	mu     sync.Mutex
	chunks []*chunk

	latest    Point
	hasLatest bool

	inserted uint64 // raw points accepted into chunks, ever

	// Retention state (zero-valued when the DB has no retention config).
	watermarkS   float64 // raw points strictly below this were compacted away
	hasWatermark bool
	lateDropped  uint64 // raw inserts below the watermark, rejected exactly
	compactedRaw uint64 // raw points folded into minute aggregates

	minute aggSeries // 1-min tier
	hour   aggSeries // 1-hour tier
}

// DB is a thread-safe time-series store.
type DB struct {
	mu     sync.RWMutex
	series map[seriesKey]*memSeries
	keys   []seriesKey // sorted lazily by Series()

	ret         RetentionConfig
	hasRet      bool
	rejected    uint64 // line-protocol records rejected by IngestLine(s)
	compactions uint64 // Compact passes run
}

// NewDB returns an empty store with no retention: every raw point is kept
// forever, exactly the pre-tiered behavior.
func NewDB() *DB {
	return &DB{series: map[seriesKey]*memSeries{}}
}

// NewDBWithRetention returns an empty store that downsamples raw points into
// 1-min and 1-hour aggregate tiers as they age past the configured windows.
// Compaction runs only when Compact is called (drive it from a loop or a
// test); memory stays bounded by the retention windows times the ingest rate.
func NewDBWithRetention(rc RetentionConfig) *DB {
	rc = rc.withDefaults()
	return &DB{series: map[seriesKey]*memSeries{}, ret: rc, hasRet: true}
}

// canonTags renders a tag map in sorted key=value form.
func canonTags(tags map[string]string) string {
	if len(tags) == 0 {
		return ""
	}
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(tags[k])
	}
	return b.String()
}

// getSeries returns the series for key, creating it if needed.
func (db *DB) getSeries(key seriesKey) *memSeries {
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s = db.series[key]; s != nil {
		return s
	}
	s = &memSeries{}
	db.series[key] = s
	db.keys = append(db.keys, key)
	return s
}

// Insert appends one point to a series. Out-of-order timestamps are accepted
// down to the series' compaction watermark; points older than what has
// already been downsampled are rejected and counted (LateDropped), never
// silently folded into closed aggregates.
func (db *DB) Insert(measurement string, tags map[string]string, p Point) {
	db.getSeries(seriesKey{measurement, canonTags(tags)}).insert(p)
}

// Ref resolves a series once so hot paths can append without re-canonicalizing
// tags or re-hashing the map — the batched ingest fast path.
func (db *DB) Ref(measurement string, tags map[string]string) SeriesRef {
	return SeriesRef{s: db.getSeries(seriesKey{measurement, canonTags(tags)})}
}

// SeriesRef is a resolved handle onto one series.
type SeriesRef struct{ s *memSeries }

// Append inserts one point through the resolved handle.
func (r SeriesRef) Append(p Point) { r.s.insert(p) }

func (s *memSeries) insert(p Point) {
	s.mu.Lock()
	s.insertLocked(p)
	s.mu.Unlock()
}

func (s *memSeries) insertLocked(p Point) {
	if s.hasWatermark && p.TimeS < s.watermarkS {
		s.lateDropped++
		return
	}
	s.inserted++
	if !s.hasLatest || p.TimeS >= s.latest.TimeS {
		s.latest = p
		s.hasLatest = true
	}
	n := len(s.chunks)
	// Fast path: in-order append onto the last chunk.
	if n > 0 {
		last := s.chunks[n-1]
		if p.TimeS >= last.maxT() {
			if len(last.pts) < chunkSize {
				last.pts = append(last.pts, p)
				return
			}
			s.chunks = append(s.chunks, &chunk{pts: append(make([]Point, 0, chunkSize/4), p)})
			return
		}
	} else {
		s.chunks = append(s.chunks, &chunk{pts: append(make([]Point, 0, chunkSize/4), p)})
		return
	}
	// Out-of-order: find the first chunk whose max >= p.TimeS and insert at
	// its sorted position. Equal timestamps insert after existing ones, so a
	// later write wins Latest ties exactly as the pre-chunked store did.
	ci := sort.Search(n, func(i int) bool { return s.chunks[i].maxT() >= p.TimeS })
	c := s.chunks[ci]
	pi := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].TimeS > p.TimeS })
	if len(c.pts) >= chunkSize {
		// Split the full chunk in half, then insert into the right half.
		mid := len(c.pts) / 2
		right := &chunk{pts: append(make([]Point, 0, chunkSize/2+1), c.pts[mid:]...)}
		c.pts = c.pts[:mid:mid]
		s.chunks = append(s.chunks, nil)
		copy(s.chunks[ci+2:], s.chunks[ci+1:])
		s.chunks[ci+1] = right
		if pi > mid {
			c, pi = right, pi-mid
		}
	}
	c.pts = append(c.pts, Point{})
	copy(c.pts[pi+1:], c.pts[pi:])
	c.pts[pi] = p
}

// Query returns the points of a series within [fromS, toS], sorted by time.
func (db *DB) Query(measurement string, tags map[string]string, fromS, toS float64) []Point {
	key := seriesKey{measurement, canonTags(tags)}
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Point
	n := len(s.chunks)
	// First chunk that can contain fromS, then walk forward copying windows.
	ci := sort.Search(n, func(i int) bool { return s.chunks[i].maxT() >= fromS })
	for ; ci < n; ci++ {
		c := s.chunks[ci]
		if c.minT() > toS {
			break
		}
		lo := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].TimeS >= fromS })
		hi := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].TimeS > toS })
		if hi > lo {
			out = append(out, c.pts[lo:hi]...)
		}
	}
	return out
}

// Latest returns the most recent point of a series in O(1).
func (db *DB) Latest(measurement string, tags map[string]string) (Point, bool) {
	key := seriesKey{measurement, canonTags(tags)}
	db.mu.RLock()
	s := db.series[key]
	db.mu.RUnlock()
	if s == nil {
		return Point{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.hasLatest
}

// Series lists all stored series as "measurement,tags" strings.
func (db *DB) Series() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.series))
	for k := range db.series {
		if k.tags == "" {
			out = append(out, k.measurement)
		} else {
			out = append(out, k.measurement+","+k.tags)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of live raw points (compacted points have
// moved into the aggregate tiers and no longer count).
func (db *DB) Len() int {
	db.mu.RLock()
	series := make([]*memSeries, 0, len(db.series))
	for _, s := range db.series {
		series = append(series, s)
	}
	db.mu.RUnlock()
	n := 0
	for _, s := range series {
		s.mu.Lock()
		for _, c := range s.chunks {
			n += len(c.pts)
		}
		s.mu.Unlock()
	}
	return n
}

// LineError is one rejected record of a batch ingest: its 1-based position
// in the batch and the parse failure.
type LineError struct {
	Line int
	Err  error
}

// BatchError reports every rejected line of a batch ingest. The batch's
// remaining lines were ingested — rejection is per-line, not per-batch.
type BatchError struct {
	Errors []LineError
}

// Error summarizes the batch: the count and the first failure.
func (e *BatchError) Error() string {
	if len(e.Errors) == 0 {
		return "telemetry: batch error with no lines"
	}
	first := e.Errors[0]
	if len(e.Errors) == 1 {
		return fmt.Sprintf("telemetry: line %d: %v", first.Line, first.Err)
	}
	return fmt.Sprintf("telemetry: %d lines rejected (first: line %d: %v)", len(e.Errors), first.Line, first.Err)
}

// IngestLine parses one line-protocol record:
//
//	measurement[,tag=value...] field=value[,field=value...] timestampSeconds
//
// Each field becomes its own series tagged with field=<name>, matching how
// the collector stores multi-field scrapes.
//
// No-escaping limits: the protocol is whitespace- and comma-delimited with no
// escape syntax, so measurement names, tag keys/values and field keys must
// not contain spaces, commas or '='. Values violating this parse as
// malformed (or silently split) — the fuzz and table tests pin the behavior.
func (db *DB) IngestLine(line string) error {
	err := db.ingestLine(line)
	if err != nil {
		db.mu.Lock()
		db.rejected++
		db.mu.Unlock()
	}
	return err
}

func (db *DB) ingestLine(line string) error {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	parts := strings.Fields(line)
	if len(parts) != 3 {
		return fmt.Errorf("telemetry: line needs 'series fields timestamp', got %q", line)
	}
	head := strings.Split(parts[0], ",")
	measurement := head[0]
	if measurement == "" {
		return fmt.Errorf("telemetry: empty measurement in %q", line)
	}
	tags := map[string]string{}
	for _, kv := range head[1:] {
		i := strings.IndexByte(kv, '=')
		if i <= 0 {
			return fmt.Errorf("telemetry: malformed tag %q", kv)
		}
		tags[kv[:i]] = kv[i+1:]
	}
	ts, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("telemetry: bad timestamp in %q: %w", line, err)
	}
	// Parse every field before inserting any, so a malformed trailing field
	// rejects the whole record instead of half-applying it.
	type fv struct {
		name string
		v    float64
	}
	fvs := make([]fv, 0, 4)
	for _, f := range strings.Split(parts[1], ",") {
		i := strings.IndexByte(f, '=')
		if i <= 0 {
			return fmt.Errorf("telemetry: malformed field %q", f)
		}
		v, err := strconv.ParseFloat(f[i+1:], 64)
		if err != nil {
			return fmt.Errorf("telemetry: bad field value in %q: %w", f, err)
		}
		fvs = append(fvs, fv{f[:i], v})
	}
	for _, f := range fvs {
		withField := map[string]string{"field": f.name}
		for k, val := range tags {
			withField[k] = val
		}
		db.Insert(measurement, withField, Point{TimeS: ts, Value: f.v})
	}
	return nil
}

// IngestLines parses a batch of newline-separated line-protocol records.
// A malformed line does NOT abort the batch: every remaining line is still
// ingested, and the returned error (a *BatchError) carries the 1-based line
// number and cause of each rejection. Rejected lines are counted (Rejected).
func (db *DB) IngestLines(lines string) error {
	_, _, err := db.IngestBatch(lines)
	return err
}

// IngestBatch is IngestLines plus counts: records ingested and rejected.
// Blank lines and comments count as neither. Decoding goes through the
// batched wire path: per-batch series resolution is cached, so records
// after the first on a series are pure appends.
func (db *DB) IngestBatch(lines string) (ingested, rejectedN int, err error) {
	dec := db.newBatchDecoder()
	var be *BatchError
	lineNo := 0
	start := 0
	for i := 0; i <= len(lines); i++ {
		if i == len(lines) || lines[i] == '\n' {
			lineNo++
			raw := lines[start:i]
			start = i + 1
			trimmed := strings.TrimSpace(raw)
			if trimmed == "" || strings.HasPrefix(trimmed, "#") {
				continue
			}
			if lerr := dec.ingest(raw); lerr != nil {
				if be == nil {
					be = &BatchError{}
				}
				be.Errors = append(be.Errors, LineError{Line: lineNo, Err: lerr})
				rejectedN++
				continue
			}
			ingested++
		}
	}
	if rejectedN > 0 {
		db.mu.Lock()
		db.rejected += uint64(rejectedN)
		db.mu.Unlock()
	}
	if be != nil {
		return ingested, rejectedN, be
	}
	return ingested, rejectedN, nil
}

// Rejected returns the cumulative count of line-protocol records this store
// has rejected as malformed.
func (db *DB) Rejected() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.rejected
}

// FormatLine renders a record in the line protocol accepted by IngestLine.
// It performs no escaping (see IngestLine's documented limits); callers own
// keeping names free of spaces, commas and '='.
func FormatLine(measurement string, tags map[string]string, fields map[string]float64, timeS float64) string {
	var b strings.Builder
	b.WriteString(measurement)
	if t := canonTags(tags); t != "" {
		b.WriteByte(',')
		b.WriteString(t)
	}
	b.WriteByte(' ')
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", k, fields[k])
	}
	fmt.Fprintf(&b, " %g", timeS)
	return b.String()
}
