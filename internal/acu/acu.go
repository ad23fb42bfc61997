// Package acu models the air-cooling unit of the TESLA testbed (an
// Envicool XR023A in the paper): a PID controller tracks the inlet (return
// air) temperature against the commanded set-point and modulates a
// compressor whose duty determines both the delivered cooling capacity and
// the electrical power draw.
//
// The power model reproduces the paper's observations:
//
//   - ≈100 W floor (fans/controls) when the compressor idles — the paper's
//     operational definition of a cooling interruption (§5.3);
//   - ≈5 kW peak draw when the set-point sits far below the inlet
//     temperature (§2.1);
//   - high variance at a constant set-point due to load-following and
//     compressor efficiency noise (Figure 2);
//   - efficiency (COP) improving with warmer return air, which is the
//     physical source of the energy saved by raising the set-point.
package acu

import (
	"fmt"

	"tesla/internal/pid"
	"tesla/internal/rng"
)

// Config parameterizes the ACU device.
type Config struct {
	// SetpointMinC and SetpointMaxC bound the commanded set-point
	// (20–35 °C for the paper's unit, Table 1).
	SetpointMinC, SetpointMaxC float64
	// MaxCoolKW is the peak cooling capacity at duty 1.
	MaxCoolKW float64
	// FanKW is the constant fan/controls draw, present even when the
	// compressor is off.
	FanKW float64
	// COPBase is the coefficient of performance at ReferenceReturnC.
	COPBase float64
	// COPSlopePerK improves COP per kelvin of return air above the
	// reference (evaporator approach effect).
	COPSlopePerK float64
	// ReferenceReturnC anchors the COP curve.
	ReferenceReturnC float64
	// PowerNoiseFrac is the multiplicative 1-sigma noise on compressor
	// power, modeling refrigerant-cycle variability.
	PowerNoiseFrac float64
	// PID holds the inlet-temperature loop gains.
	PID pid.Config
}

// DefaultConfig returns the calibrated unit used in all experiments.
func DefaultConfig() Config {
	return Config{
		SetpointMinC:     20,
		SetpointMaxC:     35,
		MaxCoolKW:        13,
		FanKW:            0.095,
		COPBase:          3.3,
		COPSlopePerK:     0.05,
		ReferenceReturnC: 23,
		PowerNoiseFrac:   0.05,
		PID: pid.Config{
			Kp: 0.30, Ki: 0.00006, Kd: 6,
			OutMin: 0, OutMax: 1,
			ReverseActing: true,
			DerivativeTau: 30,
		},
	}
}

// Validate reports non-physical configurations.
func (c Config) Validate() error {
	switch {
	case c.SetpointMinC >= c.SetpointMaxC:
		return fmt.Errorf("acu: set-point range [%g,%g] is empty", c.SetpointMinC, c.SetpointMaxC)
	case c.MaxCoolKW <= 0:
		return fmt.Errorf("acu: MaxCoolKW must be positive")
	case c.FanKW < 0:
		return fmt.Errorf("acu: FanKW must be non-negative")
	case c.COPBase <= 0:
		return fmt.Errorf("acu: COPBase must be positive")
	}
	return nil
}

// ACU is the simulated air-cooling unit.
type ACU struct {
	cfg  Config
	ctrl *pid.Controller

	setpointC float64
	duty      float64
	powerKW   float64
	coolKW    float64

	// Fault-injection state (see internal/faults): a forced interruption cuts
	// the compressor, a failed latch ignores set-point commands, and a
	// capacity factor below 1 derates delivered cooling at full electrical
	// draw (degraded refrigerant cycle).
	forcedOff      bool
	latchFailed    bool
	capacityFactor float64
}

// New returns an ACU with the commanded set-point initialized to 23 °C (the
// paper's fixed-policy value).
func New(cfg Config) (*ACU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &ACU{cfg: cfg, ctrl: pid.New(cfg.PID), capacityFactor: 1}
	a.setpointC = clamp(23, cfg.SetpointMinC, cfg.SetpointMaxC)
	a.powerKW = cfg.FanKW
	return a, nil
}

// Config returns the device configuration.
func (a *ACU) Config() Config { return a.cfg }

// SetSetpoint commands a new inlet-temperature set-point, clamped to the
// unit's allowable range, and returns the value actually latched. While the
// set-point latch is failed the command is ignored and the previously latched
// value is returned — exactly what a wedged Modbus register looks like.
func (a *ACU) SetSetpoint(c float64) float64 {
	if a.latchFailed {
		return a.setpointC
	}
	a.setpointC = clamp(c, a.cfg.SetpointMinC, a.cfg.SetpointMaxC)
	return a.setpointC
}

// ForceInterruption cuts (or restores) the compressor regardless of the PID
// demand, reproducing the paper's cooling-interruption windows (Fig. 3) on
// command. The fan floor keeps drawing, so the unit reports Interrupted.
func (a *ACU) ForceInterruption(on bool) { a.forcedOff = on }

// SetLatchFailed wedges (or frees) the set-point latch.
func (a *ACU) SetLatchFailed(on bool) { a.latchFailed = on }

// LatchFailed reports whether the set-point latch is wedged.
func (a *ACU) LatchFailed() bool { return a.latchFailed }

// SetCapacityFactor derates delivered cooling to f in (0, 1] while the
// compressor keeps drawing its commanded power — a degraded refrigerant
// cycle. Passing 1 restores the healthy unit; values outside (0, 1] clamp.
func (a *ACU) SetCapacityFactor(f float64) {
	if f <= 0 {
		f = 0.01
	}
	if f > 1 {
		f = 1
	}
	a.capacityFactor = f
}

// Setpoint returns the currently latched set-point.
func (a *ACU) Setpoint() float64 { return a.setpointC }

// Duty returns the last compressor duty in [0, 1].
func (a *ACU) Duty() float64 { return a.duty }

// PowerKW returns the last instantaneous electrical draw.
func (a *ACU) PowerKW() float64 { return a.powerKW }

// CoolKW returns the last requested cooling output.
func (a *ACU) CoolKW() float64 { return a.coolKW }

// Interrupted reports whether the unit is currently in cooling interruption
// per the paper's operational definition (power below 100 W).
func (a *ACU) Interrupted() bool { return a.powerKW < 0.100 }

// COPAt returns the coefficient of performance for a given return-air
// temperature.
func (a *ACU) COPAt(returnC float64) float64 {
	cop := a.cfg.COPBase + a.cfg.COPSlopePerK*(returnC-a.cfg.ReferenceReturnC)
	if cop < 0.8 {
		cop = 0.8
	}
	return cop
}

// Step advances the control loop by dt seconds given the measured inlet
// temperature (average of the unit's internal sensors), returning the
// cooling power (kW) to inject into the room model.
//
// The electrical power is computed from the delivered cooling and the
// temperature-dependent COP, with multiplicative cycle noise; pass nil r for
// a noise-free device.
func (a *ACU) Step(dt float64, measuredInletC float64, r *rng.Rand) (coolKW float64) {
	// The PID keeps running even through a forced interruption (the
	// controller board stays powered; only the compressor contactor is open),
	// so its state on restart is realistic.
	a.duty = a.ctrl.Update(a.setpointC, measuredInletC, dt)
	if a.forcedOff {
		a.duty = 0
		a.coolKW = 0
		a.powerKW = a.cfg.FanKW
		return 0
	}
	commandedKW := a.duty * a.cfg.MaxCoolKW
	a.coolKW = commandedKW * a.capacityFactor

	// Electrical draw follows the commanded (undegraded) duty: a derated
	// cycle wastes the shortfall, which is what makes degradation an
	// efficiency fault rather than a free capacity cut.
	comp := commandedKW / a.COPAt(measuredInletC)
	if a.cfg.PowerNoiseFrac > 0 && r != nil && comp > 0 {
		comp *= 1 + a.cfg.PowerNoiseFrac*r.Norm()
		if comp < 0 {
			comp = 0
		}
	}
	a.powerKW = a.cfg.FanKW + comp
	return a.coolKW
}

// BillAchieved lets the room model report the cooling actually delivered
// (less than requested when the supply temperature saturates); the ACU
// re-bills its power draw accordingly so energy accounting stays consistent.
func (a *ACU) BillAchieved(achievedKW, measuredInletC float64) {
	if achievedKW >= a.coolKW {
		return
	}
	frac := 0.0
	if a.coolKW > 0 {
		frac = achievedKW / a.coolKW
	}
	comp := (a.powerKW - a.cfg.FanKW) * frac
	a.powerKW = a.cfg.FanKW + comp
	a.coolKW = achievedKW
}

// Reset restores the PID state and clears any injected fault (used between
// experiments).
func (a *ACU) Reset() {
	a.ctrl.Reset()
	a.duty = 0
	a.coolKW = 0
	a.powerKW = a.cfg.FanKW
	a.forcedOff = false
	a.latchFailed = false
	a.capacityFactor = 1
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
