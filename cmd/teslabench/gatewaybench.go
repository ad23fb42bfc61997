package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"tesla/internal/fleet"
	"tesla/internal/gateway"
	"tesla/internal/modbus"
)

// gatewayBenchConfig sizes the devices × in-flight window sweep.
type gatewayBenchConfig struct {
	Devices         []int `json:"devices"`
	Windows         []int `json:"in_flight_windows"`
	OpsPerGenerator int   `json:"ops_per_generator"`
}

var defaultGatewayBench = gatewayBenchConfig{Devices: []int{250, 1000}, Windows: []int{4, 16}, OpsPerGenerator: 20}

// gatewayBenchRow is one cell of the devices × in-flight window sweep.
type gatewayBenchRow struct {
	Devices    int `json:"devices"`
	Window     int `json:"in_flight_window"`
	Generators int `json:"generators_per_device"`

	Attempts  uint64 `json:"attempts"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Dropped   uint64 `json:"dropped"`

	Reconnects   uint64 `json:"reconnects"`
	DialFailures uint64 `json:"dial_failures"`
	WireReads    uint64 `json:"wire_reads"`
	MergedReads  uint64 `json:"merged_reads"`

	ReqPerSec   float64 `json:"req_per_sec"`
	WallSeconds float64 `json:"wall_seconds"`
	latencyCols
}

// ledger checks the cell's exact accounting: every attempt was submitted or
// dropped at the window, and every submission completed or failed.
func (r gatewayBenchRow) ledger() error {
	if r.Submitted+r.Dropped != r.Attempts || r.Submitted != r.Completed+r.Failed {
		return fmt.Errorf("accounting mismatch: attempts %d, submitted %d, completed %d, failed %d, dropped %d",
			r.Attempts, r.Submitted, r.Completed, r.Failed, r.Dropped)
	}
	return nil
}

// runGatewayBench drives gateway + Modbus server pairs to saturation: every
// cell stands up one simulated ACU server per device, hammers each device
// from window-exceeding generators, and injects a mass disconnect on a
// tenth of the fleet mid-run — so the numbers include reconnect storms and
// window rejections, not just the sunny path.
func runGatewayBench(w io.Writer, c gatewayBenchConfig) ([]gatewayBenchRow, error) {
	var rows []gatewayBenchRow
	fmt.Fprintf(w, "ACU gateway sweep: %d ops/generator, mass disconnect on 1/10 of devices mid-cell\n", c.OpsPerGenerator)
	fmt.Fprintf(w, "  %7s %6s %8s %10s %9s %9s %8s %10s %8s\n",
		"devices", "window", "attempts", "req/s", "p50", "p99", "dropped", "reconnects", "merged")
	for _, devices := range c.Devices {
		for _, window := range c.Windows {
			row, err := runGatewayCell(devices, window, c.OpsPerGenerator)
			if err != nil {
				return nil, fmt.Errorf("devices=%d window=%d: %w", devices, window, err)
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "  %7d %6d %8d %10.0f %9s %9s %8d %10d %8d\n",
				devices, window, row.Attempts, row.ReqPerSec,
				time.Duration(row.P50Ns).Round(time.Microsecond),
				time.Duration(row.P99Ns).Round(time.Microsecond),
				row.Dropped, row.Reconnects, row.MergedReads)
		}
	}
	return rows, nil
}

// runGatewayCell measures one devices × window cell.
func runGatewayCell(devices, window, opsPerGen int) (gatewayBenchRow, error) {
	row := gatewayBenchRow{Devices: devices, Window: window}

	// One simulated ACU server per device.
	srvs := make([]*modbus.Server, devices)
	addrs := make([]string, devices)
	defer func() {
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := range srvs {
		bank := modbus.NewMapBank()
		bank.SetHolding(modbus.RegSetpoint, modbus.EncodeTempC(23))
		bank.SetInput(modbus.RegInletTemp0, modbus.EncodeTempC(21.5))
		bank.SetInput(modbus.RegInletTemp1, modbus.EncodeTempC(22.5))
		bank.SetInput(modbus.RegPowerW, 4200)
		bank.SetInput(modbus.RegDuty, 500)
		srvs[i] = modbus.NewServer(bank)
		addr, err := srvs[i].Start("127.0.0.1:0")
		if err != nil {
			return row, err
		}
		addrs[i] = addr
	}

	gw := gateway.New(gateway.Config{
		Timeout:    time.Second,
		InFlight:   window,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
	})
	defer gw.Close()
	devs := make([]*gateway.Device, devices)
	for i := range devs {
		d, err := gw.Add(fmt.Sprintf("acu-%d", i), addrs[i])
		if err != nil {
			return row, err
		}
		devs[i] = d
	}

	// window+1 generators per device guarantee the window is exercised —
	// capped so a 1000-device cell stays within the 1-vCPU container's
	// goroutine budget.
	gens := window + 1
	if gens > 6 {
		gens = 6
	}
	row.Generators = gens

	var attempts atomic.Uint64
	latCh := make(chan []time.Duration, devices*gens)
	var wg sync.WaitGroup
	start := time.Now()
	for _, d := range devs {
		for g := 0; g < gens; g++ {
			wg.Add(1)
			go func(d *gateway.Device, g int) {
				defer wg.Done()
				lats := make([]time.Duration, 0, opsPerGen)
				for j := 0; j < opsPerGen; j++ {
					attempts.Add(1)
					t0 := time.Now()
					var err error
					switch (j + g) % 8 {
					case 7:
						err = d.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(22+float64(j%4)))
					case 3:
						_, err = d.ReadHolding(modbus.RegSetpoint, 1)
					default:
						_, err = d.ReadInput(modbus.RegInletTemp0, 4)
					}
					if err == nil {
						lats = append(lats, time.Since(t0))
					}
				}
				latCh <- lats
			}(d, g)
		}
	}
	// Mid-cell chaos: a mass disconnect across a tenth of the fleet forces
	// the reconnect path under load.
	chaos := time.AfterFunc(50*time.Millisecond, func() {
		for i := 0; i < devices; i += 10 {
			srvs[i].DisconnectAll()
		}
	})
	wg.Wait()
	chaos.Stop()
	wall := time.Since(start)
	close(latCh)

	var all []time.Duration
	for lats := range latCh {
		all = append(all, lats...)
	}
	gs := gw.Stats()

	row.Attempts = attempts.Load()
	row.Submitted = gs.Submitted
	row.Completed = gs.Completed
	row.Failed = gs.Failed
	row.Dropped = gs.Dropped
	row.Reconnects = gs.Reconnects
	row.DialFailures = gs.DialFailures
	row.WireReads = gs.WireReads
	row.MergedReads = gs.MergedReads
	row.WallSeconds = wall.Seconds()
	if wall > 0 {
		row.ReqPerSec = float64(gs.Completed) / wall.Seconds()
	}
	row.latencyCols = latencyOf(fleet.ComputeLatencyStats(all))
	// Exactness is an acceptance criterion, not a hope.
	return row, row.ledger()
}
