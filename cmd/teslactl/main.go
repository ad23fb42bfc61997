// Command teslactl runs a closed-loop cooling-control experiment on the
// simulated testbed: it prepares the models (training sweep included),
// executes the chosen policy under the chosen load setting, and prints the
// paper's end-to-end metrics (cooling energy, thermal-safety violation,
// cooling interruption).
//
// Usage:
//
//	teslactl -policy tesla -load medium -hours 12 -scale ci [-trace out.csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tesla"
	"tesla/internal/dataset"
	"tesla/internal/experiment"
	"tesla/internal/workload"
)

func main() {
	policy := flag.String("policy", "tesla", "policy: fixed|modelfree|tesla|mpc|lazic|tsrl")
	load := flag.String("load", "medium", "load setting: idle|medium|high")
	hours := flag.Float64("hours", 12, "evaluation window in hours")
	scale := flag.String("scale", "ci", "training scale: ci|paper")
	seed := flag.Uint64("seed", 1, "experiment seed")
	tracePath := flag.String("trace", "", "optional path for the telemetry trace CSV")
	flag.Parse()

	if err := run(*policy, *load, *hours, *scale, *seed, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "teslactl:", err)
		os.Exit(1)
	}
}

func run(policyName, loadName string, hours float64, scaleName string, seed uint64, tracePath string) error {
	set, err := workload.ParseSetting(loadName)
	if err != nil {
		return err
	}

	factory, err := experiment.PolicyFactory(policyName, func() (*experiment.Artifacts, error) {
		fmt.Printf("preparing models at %s scale...\n", scaleName)
		start := time.Now()
		sys, err := tesla.PrepareWithBaselines(tesla.ScaleName(scaleName), false)
		if err != nil {
			return nil, err
		}
		fmt.Printf("prepared in %v\n", time.Since(start).Round(time.Millisecond))
		return sys.Artifacts(), nil
	})
	if err != nil {
		return err
	}
	p, err := factory(0, seed)
	if err != nil {
		return err
	}

	rc := experiment.DefaultRunConfig(p, set, seed)
	rc.EvalS = hours * 3600
	fmt.Printf("running %s under %s load for %.1f h...\n", policyName, loadName, hours)
	tr, m, err := experiment.Run(rc)
	if err != nil {
		return err
	}
	fmt.Println(m)
	if tracePath != "" {
		if err := writeTrace(tr, tracePath); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d samples)\n", tracePath, tr.Len())
	}
	return nil
}

func writeTrace(tr *dataset.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tr.WriteCSV(f)
}
