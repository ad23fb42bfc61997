package model

import (
	"fmt"

	"tesla/internal/dataset"
	"tesla/internal/linreg"
	"tesla/internal/mat"
)

// Predict runs the full sub-module cascade for a candidate set-point held
// constant over the horizon (the optimizer's shared-set-point constraint,
// eq. 5): ASP → ACU → DCS → cooling energy, then derives the interruption
// proxy D̂ (eqs. 6–7) and the thermal-safety constraint Ĉ (eq. 9). It is
// Prepare followed by one evaluation; callers scoring many set-points
// against one history should Prepare once and call Eval per candidate.
func (m *Model) Predict(h *History, setpoint float64) (*Prediction, error) {
	p, err := m.Prepare(h)
	if err != nil {
		return nil, err
	}
	p.Eval(setpoint)
	return p.Prediction(), nil
}

// PredictSeq is Predict for an arbitrary set-point sequence s_{t+1..t+L};
// model-accuracy evaluation on historical traces uses it with the actually
// executed sequence.
func (m *Model) PredictSeq(h *History, setpoints []float64) (*Prediction, error) {
	p, err := m.Prepare(h)
	if err != nil {
		return nil, err
	}
	if _, err := p.EvalSeq(setpoints); err != nil {
		return nil, err
	}
	return p.Prediction(), nil
}

// Prepared is one history's share of the cascade: everything that does not
// depend on the candidate set-point, computed once so that scoring a
// candidate costs only the set-point-dependent terms. It owns the scratch
// buffers its evaluations write into, so it is not safe for concurrent use;
// the Model it came from stays read-only and may be shared freely.
type Prepared struct {
	m *Model

	// pHatN is the ASP output p̂_{t+1..t+L} (normalized).
	pHatN []float64
	// zDC is the normalized DC-sensor lag window, the DCS history features.
	zDC []float64
	// acuBase and dcsBase hold, per horizon step, each stage's bias plus
	// every history-only term (p̂ and the sensor lag windows). An evaluation
	// adds the ACU sp column and the DCS â columns on top. dcsBase covers
	// the cold-aisle outputs only: they are all Score reads.
	acuBase, dcsBase *mat.Dense

	// Scratch written by each evaluation.
	spConst      []float64  // Eval's constant set-point sequence
	aHatN, dHatN *mat.Dense // normalized â and cold-aisle d̂ (L×Na, L×|ColdIdx|)
	xe           []float64  // cooling-energy features
	eN           []float64  // cooling-energy output
	last         Score      // most recent evaluation
	lastSp       float64
}

// Score is what the optimizer needs from one candidate evaluation.
type Score struct {
	// EnergyKWh is Ê, the predicted cooling energy over the horizon.
	EnergyKWh float64
	// EnergyNorm is Ê on the min-max normalized scale the paper's
	// optimization objective is computed in.
	EnergyNorm float64
	// Interruption is D̂, the cooling-interruption proxy (°C·steps, eq. 6).
	Interruption float64
	// InterruptionNorm is D̂ with residuals on the normalized temperature
	// scale, commensurate with EnergyNorm.
	InterruptionNorm float64
	// Constraint is Ĉ = max cold-aisle prediction − d_allowed (eq. 9);
	// negative means predicted-safe.
	Constraint float64
}

// Objective returns Ô = Ê + D̂ (eq. 8) on the normalized scale, the quantity
// TESLA minimizes. Normalization makes the two terms commensurate, exactly
// as in the paper where all data is min-max normalized before modeling.
func (s Score) Objective() float64 { return s.EnergyNorm + s.InterruptionNorm }

// Prepare runs the history-only part of the cascade: the ASP sub-module
// (eq. 1) and, for every horizon step, the history terms of the ACU (eq. 2)
// and the cold-aisle DCS (eq. 3) regressions.
//
// An evaluation adds the set-point-dependent columns after the history
// block, while linreg.PredictInto sums features in layout order (set-point
// columns first). The two orders differ only in floating-point rounding.
func (m *Model) Prepare(h *History) (*Prepared, error) {
	if err := m.ValidateHistory(h); err != nil {
		return nil, err
	}
	L, na, nd, nc := m.cfg.L, m.na, m.nd, len(m.cfg.ColdIdx)
	sc := m.scale
	p := &Prepared{
		m:       m,
		pHatN:   make([]float64, L),
		zDC:     make([]float64, nd*L),
		acuBase: mat.New(L, na),
		dcsBase: mat.New(L, nc),
		spConst: make([]float64, L),
		aHatN:   mat.New(L, na),
		dHatN:   mat.New(L, nc),
		xe:      make([]float64, L+na*L),
		eN:      make([]float64, 1),
	}

	// ASP (eq. 1): normalized past powers, newest first (j=0 → time t).
	xp := make([]float64, L)
	for j := 0; j < L; j++ {
		xp[j] = sc.pow(h.AvgPower[L-1-j])
	}
	m.asp.PredictInto(xp, p.pHatN)

	// ACU features are [sp, p̂, Na·L lag window]; the base takes every
	// column but sp.
	zAcu := make([]float64, na*L)
	for a := 0; a < na; a++ {
		for j := 0; j < L; j++ {
			zAcu[a*L+j] = sc.temp(h.ACUTemps[a][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		row := p.acuBase.Row(l)
		copy(row, m.acu[l].Bias)
		m.acu[l].AddTerms(row, 1, p.pHatN[l:l+1])
		m.acu[l].AddTerms(row, 2, zAcu)
	}

	// DCS features are [p̂, Na â columns, Nd·L lag window]; the base takes
	// every column but the â block.
	for k := 0; k < nd; k++ {
		for j := 0; j < L; j++ {
			p.zDC[k*L+j] = sc.temp(h.DCTemps[k][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		p.dcsHistory(m.dcsCold[l], l, p.dcsBase.Row(l))
	}
	return p, nil
}

// dcsHistory writes one DCS output block's bias and history terms for
// horizon step l into row.
func (p *Prepared) dcsHistory(blk *linreg.Model, l int, row []float64) {
	copy(row, blk.Bias)
	blk.AddTerms(row, 0, p.pHatN[l:l+1])
	blk.AddTerms(row, 1+p.m.na, p.zDC)
}

// Eval scores a set-point held constant over the horizon. It allocates
// nothing; the full trajectories stay available through Prediction until the
// next evaluation.
func (p *Prepared) Eval(setpoint float64) Score {
	for i := range p.spConst {
		p.spConst[i] = setpoint
	}
	return p.eval(p.spConst)
}

// EvalSeq is Eval for an arbitrary set-point sequence s_{t+1..t+L}.
func (p *Prepared) EvalSeq(setpoints []float64) (Score, error) {
	if len(setpoints) != p.m.cfg.L {
		return Score{}, fmt.Errorf("model: %d set-points for horizon %d", len(setpoints), p.m.cfg.L)
	}
	return p.eval(setpoints), nil
}

// eval adds the set-point-dependent terms to the prepared bases: the ACU sp
// column, the DCS â columns and the cooling-energy sub-module (eq. 4).
func (p *Prepared) eval(setpoints []float64) Score {
	m := p.m
	L, na := m.cfg.L, m.na
	sc := m.scale

	// The energy features start with the normalized set-points; the ACU
	// stage reads them from there.
	spN := p.xe[:L]
	for i, s := range setpoints {
		spN[i] = sc.sp(s)
	}
	for l := 0; l < L; l++ {
		aRow := p.aHatN.Row(l)
		copy(aRow, p.acuBase.Row(l))
		m.acu[l].AddTerms(aRow, 0, spN[l:l+1])

		dRow := p.dHatN.Row(l)
		copy(dRow, p.dcsBase.Row(l))
		m.dcsCold[l].AddTerms(dRow, 1, aRow)

		for a, v := range aRow {
			p.xe[L+a*L+l] = v
		}
	}
	eN := m.energy.PredictInto(p.xe, p.eN)[0]

	var s Score
	s.EnergyKWh = sc.unEnergy(eN)
	if s.EnergyKWh < 0 {
		s.EnergyKWh = 0
	}
	s.EnergyNorm = sc.energy(s.EnergyKWh)

	// Interruption proxy D̂ (eqs. 6–7): per horizon step, the residual
	// s − avg(â) counts when it exceeds κ, signalling the PID controller
	// would deliver cold air at a reduced or zero rate.
	for l := 0; l < L; l++ {
		var avg float64
		for _, v := range p.aHatN.Row(l) {
			avg += sc.unTemp(v)
		}
		avg /= float64(na)
		if u := setpoints[l] - avg; u > m.cfg.KappaC {
			s.Interruption += u
		}
	}
	s.InterruptionNorm = s.Interruption / m.TempRangeC()

	// Thermal-safety constraint Ĉ (eq. 9): how far the maximum predicted
	// cold-aisle temperature over the horizon sits above d_allowed.
	maxCold := -1e30
	for _, v := range p.dHatN.Data {
		if v := sc.unTemp(v); v > maxCold {
			maxCold = v
		}
	}
	s.Constraint = maxCold - m.cfg.AllowedColdC

	p.last, p.lastSp = s, setpoints[L-1]
	return s
}

// Prediction materializes the most recent evaluation in physical units. The
// cold-aisle temperatures are the ones the evaluation computed; the other DC
// sensors' block is computed here, in the order Prepare and eval sum the cold
// block. The result owns its memory; later evaluations do not change it.
func (p *Prepared) Prediction() *Prediction {
	m := p.m
	sc := m.scale
	pr := &Prediction{Setpoint: p.lastSp, Score: p.last}
	pr.AvgPower = make([]float64, len(p.pHatN))
	for l, v := range p.pHatN {
		pr.AvgPower[l] = sc.unPow(v)
	}
	pr.ACUTemps = unTempAll(sc, p.aHatN)
	pr.DCTemps = mat.New(m.cfg.L, m.nd)
	rest := make([]float64, len(m.restIdx))
	for l := 0; l < m.cfg.L; l++ {
		out := pr.DCTemps.Row(l)
		for c, k := range m.cfg.ColdIdx {
			out[k] = sc.unTemp(p.dHatN.At(l, c))
		}
		p.dcsHistory(m.dcsRest[l], l, rest)
		m.dcsRest[l].AddTerms(rest, 1, p.aHatN.Row(l))
		for c, k := range m.restIdx {
			out[k] = sc.unTemp(rest[c])
		}
	}
	return pr
}

func unTempAll(sc scaler, x *mat.Dense) *mat.Dense {
	out := mat.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = sc.unTemp(v)
	}
	return out
}

// TempRangeC returns the min-max span of the temperature normalization.
func (m *Model) TempRangeC() float64 {
	r := m.scale.TempMax - m.scale.TempMin
	if r <= 0 {
		return 1
	}
	return r
}

// EnergyRangeKWh returns the span of the energy normalization.
func (m *Model) EnergyRangeKWh() float64 {
	r := m.scale.EMax - m.scale.EMin
	if r <= 0 {
		return 1
	}
	return r
}

// NormEnergy maps a physical energy (kWh over the horizon) onto the
// normalized objective scale (for the error monitor's realized values).
func (m *Model) NormEnergy(kwh float64) float64 { return m.scale.energy(kwh) }

// HistoryAt extracts the inference history ending at step t of a trace.
func HistoryAt(tr *dataset.Trace, t, L int) (*History, error) {
	if t-L+1 < 0 || t >= tr.Len() {
		return nil, fmt.Errorf("model: history window [%d,%d] outside trace of %d samples", t-L+1, t, tr.Len())
	}
	h := &History{AvgPower: append([]float64(nil), tr.AvgPower[t-L+1:t+1]...)}
	h.ACUTemps = make([][]float64, tr.Na())
	for a := range h.ACUTemps {
		h.ACUTemps[a] = append([]float64(nil), tr.ACUTemps[a][t-L+1:t+1]...)
	}
	h.DCTemps = make([][]float64, tr.Nd())
	for k := range h.DCTemps {
		h.DCTemps[k] = append([]float64(nil), tr.DCTemps[k][t-L+1:t+1]...)
	}
	return h, nil
}
