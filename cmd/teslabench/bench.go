package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"tesla/internal/fleet"
)

// benchmark is one -bench harness bound to the configuration it runs at.
// run prints the harness's table to w and returns its rows; a harness whose
// own correctness check fails returns an error instead of rows.
type benchmark struct {
	name   string
	config any
	run    func(w io.Writer) (rows any, err error)
}

// bind pairs a harness with its configuration.
func bind[C, R any](name string, cfg C, run func(io.Writer, C) ([]R, error)) benchmark {
	return benchmark{name: name, config: cfg, run: func(w io.Writer) (any, error) { return run(w, cfg) }}
}

// benchmarks is every -bench harness at its committed configuration, in the
// order `-bench all` runs them.
var benchmarks = []benchmark{
	bind("fleet", defaultFleetBench, runFleetBench),
	bind("gateway", defaultGatewayBench, runGatewayBench),
	bind("ingest", defaultIngestBench, runIngestBench),
	bind("controlplane", defaultCPBench, runControlplaneBench),
	bind("scheduler", defaultSchedBench, runSchedBench),
}

func benchNames() string {
	names := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		names[i] = b.name
	}
	return strings.Join(names, ",")
}

// selectBenchmarks resolves a -bench value ("all" or comma-separated names).
func selectBenchmarks(spec string) ([]benchmark, error) {
	if spec == "all" {
		return benchmarks, nil
	}
	var out []benchmark
next:
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		for _, b := range benchmarks {
			if b.name == name {
				out = append(out, b)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown benchmark %q (want all or any of %s)", name, benchNames())
	}
	return out, nil
}

// envelope is the schema of every BENCH_<name>.json: where and from what
// the rows were measured, the configuration they were measured at, and the
// harness's rows.
type envelope struct {
	Bench     string `json:"bench"`
	Generated string `json:"generated"`
	Host      host   `json:"host"`
	Commit    string `json:"commit"`
	Config    any    `json:"config"`
	Rows      any    `json:"rows"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// runBench runs b and writes its rows as BENCH_<name>.json in dir — the
// one writer every BENCH file goes through.
func runBench(w io.Writer, dir string, b benchmark) (rows any, err error) {
	if rows, err = b.run(w); err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(envelope{
		Bench:     b.name,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
		Commit:    commit(),
		Config:    b.config,
		Rows:      rows,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "BENCH_"+b.name+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  written to %s\n\n", path)
	return rows, nil
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

// commit is the VCS revision the binary was built from, suffixed -dirty
// when the build saw uncommitted changes; "unknown" when the build recorded
// none (go test, -buildvcs=false).
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

// latencyCols are the per-operation latency quantiles a row reports, all
// from fleet.ComputeLatencyStats.
type latencyCols struct {
	P50Ns int64 `json:"latency_p50_ns"`
	P90Ns int64 `json:"latency_p90_ns"`
	P99Ns int64 `json:"latency_p99_ns"`
	MaxNs int64 `json:"latency_max_ns"`
}

func latencyOf(ls fleet.LatencyStats) latencyCols {
	return latencyCols{ls.P50.Nanoseconds(), ls.P90.Nanoseconds(), ls.P99.Nanoseconds(), ls.Max.Nanoseconds()}
}
