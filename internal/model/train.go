package model

import (
	"fmt"

	"tesla/internal/dataset"
	"tesla/internal/linreg"
	"tesla/internal/mat"
	"tesla/internal/stats"
)

// Train fits all four sub-modules on a trace following the paper's
// methodology (§3.2): each sub-module is trained separately with true
// (teacher-forced) exogenous inputs, one regression per horizon step
// (direct strategy), targets and features min-max normalized.
func Train(tr *dataset.Trace, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	L := cfg.L
	if tr.Len() < 3*L+2 {
		return nil, fmt.Errorf("model: trace too short (%d samples) for horizon %d", tr.Len(), L)
	}
	for _, ci := range cfg.ColdIdx {
		if ci < 0 || ci >= tr.Nd() {
			return nil, fmt.Errorf("model: cold-aisle index %d outside [0,%d)", ci, tr.Nd())
		}
	}

	m := &Model{cfg: cfg, na: tr.Na(), nd: tr.Nd()}
	m.scale = fitScaler(tr, cfg.L)

	// Valid anchor steps t: need L past samples (t-L+1..t) and L future
	// samples (t+1..t+L).
	var anchors []int
	for t := L - 1; t+L < tr.Len(); t += cfg.Stride {
		anchors = append(anchors, t)
	}
	n := len(anchors)
	if n < 4 {
		return nil, fmt.Errorf("model: only %d training windows; reduce stride or extend trace", n)
	}

	var err error
	if m.asp, err = trainASP(tr, anchors, m.scale, cfg); err != nil {
		return nil, fmt.Errorf("model: ASP sub-module: %w", err)
	}
	if m.acu, err = trainACU(tr, anchors, m.scale, cfg); err != nil {
		return nil, fmt.Errorf("model: ACU sub-module: %w", err)
	}
	dcs, err := trainDCS(tr, anchors, m.scale, cfg)
	if err != nil {
		return nil, fmt.Errorf("model: DCS sub-module: %w", err)
	}
	m.setDCS(dcs)
	if m.energy, err = trainEnergy(tr, anchors, m.scale, cfg); err != nil {
		return nil, fmt.Errorf("model: cooling-energy sub-module: %w", err)
	}
	return m, nil
}

func fitScaler(tr *dataset.Trace, horizon int) scaler {
	var s scaler
	s.SpMin, s.SpMax = stats.Min(tr.Setpoint), stats.Max(tr.Setpoint)
	s.PowMin, s.PowMax = stats.Min(tr.AvgPower), stats.Max(tr.AvgPower)
	s.TempMin, s.TempMax = stats.Min(tr.ACUTemps[0]), stats.Max(tr.ACUTemps[0])
	for _, series := range append(tr.ACUTemps, tr.DCTemps...) {
		if v := stats.Min(series); v < s.TempMin {
			s.TempMin = v
		}
		if v := stats.Max(series); v > s.TempMax {
			s.TempMax = v
		}
	}
	// Energy over an L-window is bounded by L·maxPower·Δt; use the power
	// trace to derive a stable range rather than enumerating windows.
	s.EMin = 0
	s.EMax = stats.Max(tr.ACUPower) * float64(horizon) * tr.PeriodS / 3600
	return s
}

// trainASP fits eq. (1): p̂_{t+l} from the L past average powers.
func trainASP(tr *dataset.Trace, anchors []int, sc scaler, cfg Config) (*linreg.Model, error) {
	L := cfg.L
	x := mat.New(len(anchors), L)
	y := mat.New(len(anchors), L)
	for i, t := range anchors {
		xr := x.Row(i)
		for j := 0; j < L; j++ {
			xr[j] = sc.pow(tr.AvgPower[t-j])
		}
		yr := y.Row(i)
		for l := 1; l <= L; l++ {
			yr[l-1] = sc.pow(tr.AvgPower[t+l])
		}
	}
	return linreg.Fit(x, y, cfg.AlphaASP)
}

// trainACU fits eq. (2) per horizon step l: â^{n_a}_{t+l} from
// [s_{t+l}, p_{t+l}, past ACU temps]. During training the true future
// set-point and the true future average power are used (teacher forcing).
func trainACU(tr *dataset.Trace, anchors []int, sc scaler, cfg Config) ([]*linreg.Model, error) {
	L, na := cfg.L, tr.Na()
	// Shared past-temperature block Z (n × Na·L): identical for every l.
	z := mat.New(len(anchors), na*L)
	for i, t := range anchors {
		zr := z.Row(i)
		for a := 0; a < na; a++ {
			for j := 0; j < L; j++ {
				zr[a*L+j] = sc.temp(tr.ACUTemps[a][t-j])
			}
		}
	}
	shared := newSharedBlock(z)

	models := make([]*linreg.Model, L)
	u := mat.New(len(anchors), 2)
	y := mat.New(len(anchors), na)
	for l := 1; l <= L; l++ {
		for i, t := range anchors {
			ur := u.Row(i)
			ur[0] = sc.sp(tr.Setpoint[t+l])
			ur[1] = sc.pow(tr.AvgPower[t+l])
			yr := y.Row(i)
			for a := 0; a < na; a++ {
				yr[a] = sc.temp(tr.ACUTemps[a][t+l])
			}
		}
		mdl, err := fitBlocked(u, shared, y, cfg.AlphaACU)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", l, err)
		}
		models[l-1] = mdl
	}
	return models, nil
}

// trainDCS fits eq. (3) per horizon step l: d̂^{n_d}_{t+l} from
// [p_{t+l}, a^{i}_{t+l} for each ACU sensor, past DC temps].
func trainDCS(tr *dataset.Trace, anchors []int, sc scaler, cfg Config) ([]*linreg.Model, error) {
	L, na, nd := cfg.L, tr.Na(), tr.Nd()
	z := mat.New(len(anchors), nd*L)
	for i, t := range anchors {
		zr := z.Row(i)
		for k := 0; k < nd; k++ {
			for j := 0; j < L; j++ {
				zr[k*L+j] = sc.temp(tr.DCTemps[k][t-j])
			}
		}
	}
	shared := newSharedBlock(z)

	models := make([]*linreg.Model, L)
	u := mat.New(len(anchors), 1+na)
	y := mat.New(len(anchors), nd)
	for l := 1; l <= L; l++ {
		for i, t := range anchors {
			ur := u.Row(i)
			ur[0] = sc.pow(tr.AvgPower[t+l])
			for a := 0; a < na; a++ {
				ur[1+a] = sc.temp(tr.ACUTemps[a][t+l])
			}
			yr := y.Row(i)
			for k := 0; k < nd; k++ {
				yr[k] = sc.temp(tr.DCTemps[k][t+l])
			}
		}
		mdl, err := fitBlocked(u, shared, y, cfg.AlphaDCS)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", l, err)
		}
		models[l-1] = mdl
	}
	return models, nil
}

// trainEnergy fits eq. (4): Ê^L_{t+1} from the L future set-points and the
// L·Na future ACU inlet temperatures (true values during training).
func trainEnergy(tr *dataset.Trace, anchors []int, sc scaler, cfg Config) (*linreg.Model, error) {
	L, na := cfg.L, tr.Na()
	x := mat.New(len(anchors), L+na*L)
	y := mat.New(len(anchors), 1)
	for i, t := range anchors {
		xr := x.Row(i)
		for j := 1; j <= L; j++ {
			xr[j-1] = sc.sp(tr.Setpoint[t+j])
		}
		for a := 0; a < na; a++ {
			for j := 1; j <= L; j++ {
				xr[L+a*L+j-1] = sc.temp(tr.ACUTemps[a][t+j])
			}
		}
		y.Row(i)[0] = sc.energy(tr.EnergyKWh(t+1, t+1+L))
	}
	return linreg.Fit(x, y, cfg.AlphaEnergy)
}

// sharedBlock caches the expensive cross products of the design-matrix block
// that is identical across horizon steps (the past-temperature lags), so the
// L per-step ridge problems of a sub-module share one Gram computation.
type sharedBlock struct {
	z     *mat.Dense
	zMean []float64
	ztzC  *mat.Dense // centered ZᵀZ
}

func newSharedBlock(z *mat.Dense) *sharedBlock {
	b := &sharedBlock{z: z}
	b.zMean = colMeans(z)
	ztz := mat.Gram(z)
	n := float64(z.Rows)
	q := z.Cols
	for a := 0; a < q; a++ {
		for c := 0; c < q; c++ {
			ztz.Data[a*q+c] -= n * b.zMean[a] * b.zMean[c]
		}
	}
	b.ztzC = ztz
	return b
}

// fitBlocked solves the ridge problem for design [U | Z] with the shared Z
// block pre-factored, producing a linreg.Model whose feature order is
// U-columns first then Z-columns.
func fitBlocked(u *mat.Dense, shared *sharedBlock, y *mat.Dense, alpha float64) (*linreg.Model, error) {
	n := u.Rows
	if n != shared.z.Rows || n != y.Rows {
		return nil, fmt.Errorf("model: blocked fit row mismatch %d/%d/%d", n, shared.z.Rows, y.Rows)
	}
	p, q, mOut := u.Cols, shared.z.Cols, y.Cols
	d := p + q
	nf := float64(n)

	uMean := colMeans(u)
	yMean := colMeans(y)

	// Raw cross products; centering is applied as a rank-1 correction.
	utu := mat.Gram(u)
	utz := mat.XtY(u, shared.z)
	uty := mat.XtY(u, y)
	zty := mat.XtY(shared.z, y)

	gram := mat.New(d, d)
	for a := 0; a < p; a++ {
		for c := 0; c < p; c++ {
			gram.Data[a*d+c] = utu.Data[a*p+c] - nf*uMean[a]*uMean[c]
		}
		for c := 0; c < q; c++ {
			v := utz.Data[a*q+c] - nf*uMean[a]*shared.zMean[c]
			gram.Data[a*d+p+c] = v
			gram.Data[(p+c)*d+a] = v
		}
	}
	for a := 0; a < q; a++ {
		copy(gram.Row(p + a)[p:], shared.ztzC.Row(a))
	}
	for j := 0; j < d; j++ {
		gram.Data[j*d+j] += alpha
	}

	xty := mat.New(d, mOut)
	for a := 0; a < p; a++ {
		for c := 0; c < mOut; c++ {
			xty.Data[a*mOut+c] = uty.Data[a*mOut+c] - nf*uMean[a]*yMean[c]
		}
	}
	for a := 0; a < q; a++ {
		for c := 0; c < mOut; c++ {
			xty.Data[(p+a)*mOut+c] = zty.Data[a*mOut+c] - nf*shared.zMean[a]*yMean[c]
		}
	}

	w, err := mat.SolveSPD(gram, xty)
	if err != nil {
		return nil, err
	}
	bias := make([]float64, mOut)
	for j := 0; j < mOut; j++ {
		b := yMean[j]
		for k := 0; k < p; k++ {
			b -= w.Data[k*mOut+j] * uMean[k]
		}
		for k := 0; k < q; k++ {
			b -= w.Data[(p+k)*mOut+j] * shared.zMean[k]
		}
		bias[j] = b
	}
	return &linreg.Model{Weights: w, Bias: bias, Alpha: alpha}, nil
}

func colMeans(a *mat.Dense) []float64 {
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(a.Rows)
	}
	return out
}
