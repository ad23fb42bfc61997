// Ablations: measure what each ingredient of the TESLA controller buys by
// removing them one at a time (the design choices DESIGN.md calls out):
//
//   - the cooling-interruption penalty D̂ in the objective (eq. 8),
//   - the §3.4 smoothing buffer,
//   - the modeling-error awareness of the Bayesian optimizer (§3.3).
//
// A fault-matrix sweep rounds the study out: every fault class in
// internal/faults runs against the supervised controller, which must keep
// the true plant safe on corrupted telemetry and recover after actuator
// failures.
//
//	go run ./examples/ablations [-hours 6] [-load medium]
package main

import (
	"flag"
	"fmt"
	"log"

	"tesla"
	"tesla/internal/experiment"
	"tesla/internal/workload"
)

func main() {
	hours := flag.Float64("hours", 6, "evaluation window in hours")
	loadName := flag.String("load", "medium", "load setting: idle|medium|high")
	flag.Parse()

	sys, err := tesla.PrepareWithBaselines(tesla.ScaleCI, false)
	if err != nil {
		log.Fatal(err)
	}
	art := sys.Artifacts()

	load, err := workload.ParseSetting(*loadName)
	if err != nil {
		log.Fatal(err)
	}

	study, err := experiment.RunAblations(art, load, *hours*3600, 31)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(study)
	fmt.Println("Reading the table:")
	fmt.Println("  no-interruption-penalty → cheaper but risks interruption-driven TSV")
	fmt.Println("  no-smoothing            → higher set-point churn (sp-std column)")
	fmt.Println("  no-error-awareness      → rides the raw model prediction at the limit")

	fm, err := experiment.RunFaultMatrix(art, load, *hours*3600, 17)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(fm)
	fmt.Println("Every row runs TESLA behind the safety supervisor while one fault class")
	fmt.Println("is injected mid-window. \"true\" scores ground-truth violations (immune to")
	fmt.Println("the corrupted telemetry): sensor and telemetry faults must keep it at 0,")
	fmt.Println("actuator faults are judged on recovery time and energy cost instead.")
}
