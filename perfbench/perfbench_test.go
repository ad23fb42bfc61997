package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tesla/internal/experiment"
)

var (
	artOnce sync.Once
	art     *experiment.Artifacts
	artErr  error
)

// smallPlan shrinks a workload to a few rooms and a horizon that still
// crosses one checkpoint boundary (snapEvery).
func smallPlan(t *testing.T, name string, workers int) *plan {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlan(w, 7, workers, t.TempDir(), time.Now())
	pl.rooms, pl.steps = 3, snapEvery+6
	if w.policy == "tesla" {
		pl.rooms = 2
		artOnce.Do(func() { art, artErr = experiment.Prepare(experiment.CIScale(), false) })
		if artErr != nil {
			t.Fatal(artErr)
		}
		pl.art = art
	}
	if pl.workers > pl.rooms {
		pl.workers = pl.rooms
	}
	return pl
}

func runEpisode(t *testing.T, pl *plan, index int, m mode) *episodeResult {
	t.Helper()
	er, err := pl.episode(index, pl.seed, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range er.checks {
		t.Errorf("%s episode %d (%+v): %s", pl.w.name, index, m, c)
	}
	return er
}

func hashes(er *episodeResult) []uint64 {
	h := make([]uint64, len(er.results))
	for i, r := range er.results {
		h[i] = r.TrajectoryHash
	}
	return h
}

func sameHashes(t *testing.T, label string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rooms, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: room %d hash %016x, want %016x", label, i, got[i], want[i])
		}
	}
}

// TestWorkloadChecks runs a small size of every workload untraced, traced
// and (for the field-bus workload) in process, and holds them to the checks
// a full run makes: every room completes its horizon, side calls leave the
// trajectories untouched, the field path equals the in-process path with
// the same quantisation, the poll ledger and the recovered stores are
// exact, and the BO replay reproduces every decision. The horizon lets the
// error monitor mature enough errors to be reliable, so a side call that
// advanced its RNG would move the trajectory.
func TestWorkloadChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pl := smallPlan(t, w.name, runtime.GOMAXPROCS(0))
			base := runEpisode(t, pl, 0, mode{})
			again := runEpisode(t, pl, 1, mode{})
			traced := runEpisode(t, pl, 2, mode{traced: true})
			sameHashes(t, "repeat", hashes(base), hashes(again))
			sameHashes(t, "traced", hashes(base), hashes(traced))
			if w.wire {
				ref := runEpisode(t, pl, 3, mode{reference: true})
				sameHashes(t, "in-process reference", hashes(base), hashes(ref))
				if base.c.PollSamples != uint64(pl.rooms*pl.steps) || base.c.SeqGaps != 0 {
					t.Errorf("poll ledger: %d samples, %d gaps for %d room-steps", base.c.PollSamples, base.c.SeqGaps, pl.rooms*pl.steps)
				}
			}
			if w.wal {
				if got, want := base.c.StoreRecords, uint64(pl.rooms*(60+pl.steps)); got != want {
					t.Errorf("recovered %d records, want %d", got, want)
				}
			}
			if w.policy == "tesla" {
				c := traced.c
				if c.Optimizes == 0 || c.ReplayMisses != 0 || c.ReplayMismatch != 0 {
					t.Errorf("bo replay: %d optimisations, %d misses, %d mismatches", c.Optimizes, c.ReplayMisses, c.ReplayMismatch)
				}
			}
			if len(traced.spans) == 0 {
				t.Fatal("traced episode recorded no spans")
			}
		})
	}
}

// TestWorkerCountInvariance checks that per-room trajectories do not depend
// on the size of the worker pool.
func TestWorkerCountInvariance(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			one := runEpisode(t, smallPlan(t, w.name, 1), 0, mode{})
			all := runEpisode(t, smallPlan(t, w.name, runtime.NumCPU()), 0, mode{})
			sameHashes(t, "pool of 1 vs nproc", hashes(one), hashes(all))
		})
	}
}

// TestLedgerFromTraceFile writes a traced episode's spans, reads them back
// and checks that every listed per-layer time, and every printed time of a
// layer the workload reaches, is measured, and that every step reconciles
// (no negative fleet self time).
func TestLedgerFromTraceFile(t *testing.T) {
	reached := map[string][]string{
		"tesla-durable": {"model.predict_us_p50", "bo.optimize_us_p50", "fleet.ckpt_step_us_p50"},
		"fieldbus":      {"gateway.write_us_p50", "gateway.write_us_p99", "gateway.poll_us_p50", "gateway.poll_us_p99", "setup.fieldbus_s"},
	}
	isTime := map[string]bool{"us": true, "ms": true, "s": true}
	for name, layers := range reached {
		pl := smallPlan(t, name, runtime.GOMAXPROCS(0))
		er := runEpisode(t, pl, 0, mode{traced: true})
		path := filepath.Join(t.TempDir(), "trace.csv")
		h := traceHeader{Workload: pl.w.name, Rooms: pl.rooms, Workers: pl.workers, Steps: pl.steps,
			Episodes: 1, WAL: pl.w.wal, SnapEvery: snapEvery, Counters: er.c, UntracedMeanStepNs: 1}
		if err := writeTrace(path, h, er.spans); err != nil {
			t.Fatal(err)
		}
		h2, spans, err := readTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != len(er.spans) || h2.Counters != er.c {
			t.Fatalf("%s round trip: %d spans (want %d), counters %+v (want %+v)", name, len(spans), len(er.spans), h2.Counters, er.c)
		}
		for i := range spans {
			if spans[i] != er.spans[i] {
				t.Fatalf("%s span %d: %+v, want %+v", name, i, spans[i], er.spans[i])
			}
		}
		want := map[string]bool{}
		for _, l := range layers {
			want[l] = true
		}
		for _, r := range perLayer(h2, spans) {
			switch {
			case r.Name == "trace.negative_self" && r.Value != 0:
				t.Errorf("%s: %g steps with negative fleet self time", name, r.Value)
			case (r.Listed && isTime[r.Unit] || want[r.Name]) && r.Value <= 0:
				t.Errorf("%s: %s = %g", name, r.Name, r.Value)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// workload and metric tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(label string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		var want []metricDef
		for _, d := range defs {
			if d.listed {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", label, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: %+v, want %+v", label, i, got[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayerDefs)
}

// TestRunPrintsResultLine runs the command on the quickest workload and
// checks the one-line result it ends with.
func TestRunPrintsResultLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		args := []string{"--workload", "fieldbus", "--seed", "3", "--seconds", "0.2", "--trace", trace, "--out", t.TempDir()}
		if err := run(args, &out, time.Now()); err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("trace %s: last line keys: %s", trace, lines[len(lines)-1])
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayerDefs
		}
		for _, d := range defs {
			m, ok := metrics[d.name]
			if ok != d.listed || (ok && m.Unit != d.unit) {
				t.Errorf("trace %s: metric %s listed=%v present=%v unit %q", trace, d.name, d.listed, ok, m.Unit)
			}
		}
		if string(res["correct"]) != "true" {
			t.Errorf("trace %s: correct = %s", trace, res["correct"])
		}
	}
}
