package controlplane

import (
	"fmt"
	"sync"

	"tesla/internal/gateway"
	"tesla/internal/modbus"
	"tesla/internal/telemetry"
	"tesla/internal/testbed"
)

// fieldBus is one hosted room's complete field path: the plant's register
// bridge, an in-process Modbus/TCP ACU device sim serving it, a device on
// the shard's shared gateway dialing that sim, and a single-device poller.
// Actuation crosses the wire (gateway write → TCP → device sim → bridge
// latch into the plant) and every control step runs exactly one poll
// sweep, so the poller's per-device sequence ledger is the migratable
// record of what this host observed: Poller.Seqs() is the hand-off token
// a successor resumes from.
type fieldBus struct {
	gw     *gateway.Gateway
	id     string
	bridge *modbus.ACUBridge
	srv    *modbus.Server
	dev    *gateway.Device
	poller *gateway.Poller

	once sync.Once
	seqs []uint64
	roll telemetry.Rollup
}

// newFieldBus boots a room's field path onto the shard gateway. The
// migration hand-off token rides in pcfg.StartSeqs (nil for a fresh or
// failover placement, where the predecessor's ledger died with it).
func newFieldBus(gw *gateway.Gateway, id string, tb *testbed.Testbed, pcfg gateway.PollerConfig) (*fieldBus, error) {
	bridge := modbus.NewACUBridge(tb)
	srv := modbus.NewServer(bridge.Bank)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("controlplane: field bus %s: %w", id, err)
	}
	dev, err := gw.Add(id, addr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("controlplane: field bus %s: %w", id, err)
	}
	return &fieldBus{
		gw: gw, id: id, bridge: bridge, srv: srv, dev: dev,
		poller: gateway.NewPollerOver([]*gateway.Device{dev}, pcfg),
	}, nil
}

// actuate routes one set-point command over the wire; the device bridge
// latches the decoded value into the plant before this returns (writes
// are barriers in the device pipeline).
func (f *fieldBus) actuate(spC float64) error {
	return f.dev.WriteHolding(modbus.RegSetpoint, modbus.EncodeTempC(spC))
}

// publish refreshes the device sim's input registers from the step's
// sample and runs one poll sweep + drain — exactly one polled sample (or
// one exact seq gap) per control step, stamped with simulation time.
// Called only from the room's loop goroutine.
func (f *fieldBus) publish(s testbed.Sample) {
	f.bridge.Refresh(s)
	f.poller.PollOnce(s.TimeS)
	f.poller.DrainOnce()
}

// rollup snapshots the live poll ledger. Safe concurrently with publish —
// the poller's ingestor is internally locked.
func (f *fieldBus) rollup() telemetry.Rollup { return f.poller.Rollup() }

// close flushes the poller, snapshots the hand-off token and final ledger,
// and tears the field path down (device off the gateway, sim stopped).
// Idempotent — every caller sees the same snapshot. Must not run
// concurrently with actuate/publish; callers tear down only after the
// room's loop goroutine has exited.
func (f *fieldBus) close() (seqs []uint64, roll telemetry.Rollup) {
	f.once.Do(func() {
		for f.poller.DrainOnce() > 0 {
		}
		f.seqs = f.poller.Seqs()
		f.roll = f.poller.Rollup()
		f.gw.Remove(f.id)
		f.srv.Close()
	})
	return f.seqs, f.roll
}
