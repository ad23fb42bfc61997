package thermo

import (
	"fmt"
	"math"

	"tesla/internal/rng"
)

// Node identifies which thermal node a sensor samples.
type Node int

// Thermal node kinds a sensor can be attached to.
const (
	NodeColdAisle Node = iota
	NodeHotAisle
	NodeRack // uses Sensor.Rack to pick the rack index
	NodeReturn
)

// String implements fmt.Stringer.
func (n Node) String() string {
	switch n {
	case NodeColdAisle:
		return "cold-aisle"
	case NodeHotAisle:
		return "hot-aisle"
	case NodeRack:
		return "rack"
	case NodeReturn:
		return "return"
	default:
		return fmt.Sprintf("node(%d)", int(n))
	}
}

// FaultMode selects how a faulty probe misreports. FaultNone is the healthy
// default; the other modes are the field-failure taxonomy the fault-injection
// engine exercises (see internal/faults).
type FaultMode int

// Sensor fault modes.
const (
	// FaultNone reads normally.
	FaultNone FaultMode = iota
	// FaultStuck freezes the reading at StuckAt (dead probe, the dominant
	// failure mode of cheap rack probes).
	FaultStuck
	// FaultDrift adds the accumulated DriftC bias to the reading (thermistor
	// aging / detached probe slowly equalizing with ambient).
	FaultDrift
	// FaultDropout reports NaN (probe unplugged / bus CRC failure).
	FaultDropout
	// FaultNoise adds ExtraNoiseStd on top of the healthy measurement noise
	// (electrical interference burst).
	FaultNoise
)

// String implements fmt.Stringer.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultStuck:
		return "stuck"
	case FaultDrift:
		return "drift"
	case FaultDropout:
		return "dropout"
	case FaultNoise:
		return "noise"
	default:
		return fmt.Sprintf("fault(%d)", int(m))
	}
}

// Sensor models one physical temperature probe: it reads a node temperature
// plus a fixed spatial offset (stratification along rack height) and
// zero-mean Gaussian measurement noise. A faulty sensor misreports according
// to its FaultMode — the failure taxonomy the controller-robustness tests
// and the fault-injection engine exercise.
type Sensor struct {
	Name     string
	Node     Node
	Rack     int     // rack index when Node == NodeRack
	OffsetC  float64 // systematic spatial offset
	NoiseStd float64 // measurement noise (°C)

	Failed  bool    // legacy flag: equivalent to Mode == FaultStuck
	StuckAt float64 // the frozen reading while stuck

	Mode          FaultMode
	DriftC        float64 // accumulated drift bias (FaultDrift); the engine integrates it
	ExtraNoiseStd float64 // extra measurement noise while FaultNoise is active
}

// Read samples the sensor against the current room state.
func (s Sensor) Read(room *Room, r *rng.Rand) float64 {
	if s.Failed || s.Mode == FaultStuck {
		return s.StuckAt
	}
	if s.Mode == FaultDropout {
		return math.NaN()
	}
	v := s.TrueRead(room)
	if s.Mode == FaultDrift {
		v += s.DriftC
	}
	std := s.NoiseStd
	if s.Mode == FaultNoise {
		std += s.ExtraNoiseStd
	}
	if std > 0 && r != nil {
		v += r.NormScaled(0, std)
	}
	return v
}

// TrueRead returns the physical temperature at the probe location (node
// temperature plus spatial offset) with no measurement noise and no fault —
// the ground truth the safety experiments score violations against.
func (s Sensor) TrueRead(room *Room) float64 {
	var base float64
	switch s.Node {
	case NodeColdAisle:
		base = room.ColdC
	case NodeHotAisle:
		base = room.HotC
	case NodeRack:
		base = room.RackC[s.Rack]
	case NodeReturn:
		base = room.ReturnC
	default:
		panic(fmt.Sprintf("thermo: unknown sensor node %d", s.Node))
	}
	return base + s.OffsetC
}

// ClearFault restores the sensor to healthy operation.
func (s *Sensor) ClearFault() {
	s.Failed = false
	s.Mode = FaultNone
	s.DriftC = 0
	s.ExtraNoiseStd = 0
}

// Array is the testbed sensor deployment: Nd rack-installed DC sensors of
// which the first NumColdAisle monitor the cold aisle (the thermal-safety
// constraint set, paper §3.3 eq. 9), plus Na ACU-internal inlet sensors.
type Array struct {
	DC  []Sensor // rack-installed DC sensors (N_d = 35 in the paper)
	ACU []Sensor // ACU internal inlet sensors (N_a = 2 in the paper)
	// NumColdAisle is the count of leading DC sensors located in the cold
	// aisle (11 in the paper); their indices form I_cold.
	NumColdAisle int
}

// DefaultArray builds the paper's deployment: 11 cold-aisle probes at
// different heights, 12 hot-aisle probes, 12 rack probes (3 per rack), and 2
// ACU inlet sensors.
func DefaultArray() *Array {
	a := &Array{NumColdAisle: 11}
	for i := 0; i < 11; i++ {
		// Stratification: probes higher on the rack read warmer; spread the
		// offsets over [0, 1.5] °C so the max cold-aisle sensor is ~1.5 °C
		// above the bulk cold-aisle temperature.
		off := 1.5 * float64(i) / 10
		a.DC = append(a.DC, Sensor{
			Name:    fmt.Sprintf("cold-%02d", i),
			Node:    NodeColdAisle,
			OffsetC: off, NoiseStd: 0.08,
		})
	}
	for i := 0; i < 12; i++ {
		off := -1.0 + 2.0*float64(i)/11
		a.DC = append(a.DC, Sensor{
			Name:    fmt.Sprintf("hot-%02d", i),
			Node:    NodeHotAisle,
			OffsetC: off, NoiseStd: 0.1,
		})
	}
	for i := 0; i < 12; i++ {
		a.DC = append(a.DC, Sensor{
			Name: fmt.Sprintf("rack-%d-%d", i%NumRacks, i/NumRacks),
			Node: NodeRack, Rack: i % NumRacks,
			OffsetC: 0.4 * float64(i/NumRacks), NoiseStd: 0.1,
		})
	}
	for i := 0; i < 2; i++ {
		a.ACU = append(a.ACU, Sensor{
			Name: fmt.Sprintf("acu-inlet-%d", i),
			Node: NodeReturn,
			// The two inlet probes sit at opposite corners of the intake.
			OffsetC: -0.15 + 0.3*float64(i), NoiseStd: 0.06,
		})
	}
	return a
}

// ReadDC samples every DC sensor into dst (reused if large enough).
func (a *Array) ReadDC(room *Room, r *rng.Rand, dst []float64) []float64 {
	if cap(dst) < len(a.DC) {
		dst = make([]float64, len(a.DC))
	}
	dst = dst[:len(a.DC)]
	for i, s := range a.DC {
		dst[i] = s.Read(room, r)
	}
	return dst
}

// ReadACU samples every ACU inlet sensor into dst.
func (a *Array) ReadACU(room *Room, r *rng.Rand, dst []float64) []float64 {
	if cap(dst) < len(a.ACU) {
		dst = make([]float64, len(a.ACU))
	}
	dst = dst[:len(a.ACU)]
	for i, s := range a.ACU {
		dst[i] = s.Read(room, r)
	}
	return dst
}

// ColdAisleIndices returns I_cold, the DC-sensor indices that participate in
// the thermal-safety constraint.
func (a *Array) ColdAisleIndices() []int {
	idx := make([]int, a.NumColdAisle)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// FailDC freezes DC sensor i at the given reading (fault injection).
func (a *Array) FailDC(i int, stuckAtC float64) {
	a.DC[i].Failed = true
	a.DC[i].StuckAt = stuckAtC
}

// MaxColdAisle returns the maximum reading among cold-aisle sensors. NaN
// readings (dropped-out probes) are skipped; if every cold-aisle probe is
// out, the result is NaN.
func (a *Array) MaxColdAisle(readings []float64) float64 {
	m := math.NaN()
	for _, v := range readings[:a.NumColdAisle] {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(m) || v > m {
			m = v
		}
	}
	return m
}

// TrueMaxColdAisle returns the ground-truth maximum cold-aisle temperature:
// the physical reading of every cold-aisle probe location, ignoring
// measurement noise and any injected fault.
func (a *Array) TrueMaxColdAisle(room *Room) float64 {
	m := math.Inf(-1)
	for _, s := range a.DC[:a.NumColdAisle] {
		if v := s.TrueRead(room); v > m {
			m = v
		}
	}
	return m
}
