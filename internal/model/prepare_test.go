package model

import (
	"bytes"
	"encoding/gob"
	"math"
	"sync"
	"testing"

	"tesla/internal/dataset"
	"tesla/internal/linreg"
	"tesla/internal/mat"
	"tesla/internal/rng"
)

// referencePredictSeq is the single-pass cascade Prepare/Eval replaced: every
// regression is evaluated over its full feature vector in layout order, set-
// point columns first. It is kept here only as the equivalence oracle.
func referencePredictSeq(m *Model, h *History, setpoints []float64) *Prediction {
	L, na, nd := m.cfg.L, m.na, m.nd
	sc := m.scale

	xp := make([]float64, L)
	for j := 0; j < L; j++ {
		xp[j] = sc.pow(h.AvgPower[L-1-j])
	}
	pHatN := m.asp.Predict(xp)

	spN := make([]float64, L)
	for i, s := range setpoints {
		spN[i] = sc.sp(s)
	}
	aHatN := mat.New(L, na)
	xa := make([]float64, 2+na*L)
	for a := 0; a < na; a++ {
		for j := 0; j < L; j++ {
			xa[2+a*L+j] = sc.temp(h.ACUTemps[a][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		xa[0], xa[1] = spN[l], pHatN[l]
		m.acu[l].PredictInto(xa, aHatN.Row(l))
	}

	dHatN := mat.New(L, nd)
	xd := make([]float64, 1+na+nd*L)
	for k := 0; k < nd; k++ {
		for j := 0; j < L; j++ {
			xd[1+na+k*L+j] = sc.temp(h.DCTemps[k][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		xd[0] = pHatN[l]
		copy(xd[1:1+na], aHatN.Row(l))
		m.dcsFull(l).PredictInto(xd, dHatN.Row(l))
	}

	xe := make([]float64, L+na*L)
	copy(xe, spN)
	for a := 0; a < na; a++ {
		for j := 0; j < L; j++ {
			xe[L+a*L+j] = aHatN.At(j, a)
		}
	}
	eN := m.energy.Predict(xe)[0]

	p := &Prediction{Setpoint: setpoints[L-1]}
	p.AvgPower = make([]float64, L)
	for l := range p.AvgPower {
		p.AvgPower[l] = sc.unPow(pHatN[l])
	}
	p.ACUTemps = mat.New(L, na)
	for i, v := range aHatN.Data {
		p.ACUTemps.Data[i] = sc.unTemp(v)
	}
	p.DCTemps = mat.New(L, nd)
	for i, v := range dHatN.Data {
		p.DCTemps.Data[i] = sc.unTemp(v)
	}
	p.EnergyKWh = sc.unEnergy(eN)
	if p.EnergyKWh < 0 {
		p.EnergyKWh = 0
	}
	p.EnergyNorm = sc.energy(p.EnergyKWh)

	for l := 0; l < L; l++ {
		var avg float64
		for _, v := range p.ACUTemps.Row(l) {
			avg += v
		}
		avg /= float64(na)
		if u := setpoints[l] - avg; u > m.cfg.KappaC {
			p.Interruption += u
		}
	}
	p.InterruptionNorm = p.Interruption / m.TempRangeC()
	maxCold := -1e30
	for l := 0; l < L; l++ {
		for _, k := range m.cfg.ColdIdx {
			if v := p.DCTemps.At(l, k); v > maxCold {
				maxCold = v
			}
		}
	}
	p.Constraint = maxCold - m.cfg.AllowedColdC
	return p
}

// relErr is |a−b| relative to max(|a|, |b|, 1): relative for the
// temperatures and energies, and floored at 1 for Ĉ, a temperature
// difference that crosses zero.
func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func checkEquivalent(t *testing.T, what string, got, want *Prediction) {
	t.Helper()
	const tol = 1e-12
	if got.Setpoint != want.Setpoint {
		t.Fatalf("%s: set-point %g, want %g", what, got.Setpoint, want.Setpoint)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Objective", got.Objective(), want.Objective()},
		{"Constraint", got.Constraint, want.Constraint},
		{"EnergyKWh", got.EnergyKWh, want.EnergyKWh},
		{"Interruption", got.Interruption, want.Interruption},
	} {
		if e := relErr(c.got, c.want); e > tol {
			t.Fatalf("%s: %s = %v, reference %v (rel err %.3g)", what, c.name, c.got, c.want, e)
		}
	}
	for i, v := range want.ACUTemps.Data {
		if e := relErr(got.ACUTemps.Data[i], v); e > tol {
			t.Fatalf("%s: ACU temperature %d = %v, reference %v (rel err %.3g)", what, i, got.ACUTemps.Data[i], v, e)
		}
	}
	for i, v := range want.DCTemps.Data {
		if e := relErr(got.DCTemps.Data[i], v); e > tol {
			t.Fatalf("%s: DC temperature %d = %v, reference %v (rel err %.3g)", what, i, got.DCTemps.Data[i], v, e)
		}
	}
	for i, v := range want.AvgPower {
		if got.AvgPower[i] != v {
			t.Fatalf("%s: power %d = %v, reference %v", what, i, got.AvgPower[i], v)
		}
	}
}

// TestPrepareMatchesReferenceCascade scores constant set-points on a grid,
// the executed set-point sequences of a held-out trace and random
// non-constant sequences, at the small test horizon and at the paper's L=20.
func TestPrepareMatchesReferenceCascade(t *testing.T) {
	for _, L := range []int{6, 20} {
		tr := syntheticTrace(900, 10)
		train, test := tr.Split(0.7)
		cfg := smallConfig()
		cfg.L = L
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(uint64(L))
		seq := make([]float64, L)
		for ti := L - 1; ti+L < test.Len(); ti += 5 {
			h, err := HistoryAt(test, ti, L)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := m.Prepare(h)
			if err != nil {
				t.Fatal(err)
			}
			for sp := 20.0; sp <= 35; sp += 0.75 {
				for i := range seq {
					seq[i] = sp
				}
				s := prep.Eval(sp)
				got := prep.Prediction()
				if s != got.Score {
					t.Fatalf("Eval returned %+v, materialized %+v", s, got.Score)
				}
				checkEquivalent(t, "grid", got, referencePredictSeq(m, h, seq))
			}
			executed := test.Setpoint[ti+1 : ti+1+L]
			got, err := m.PredictSeq(h, executed)
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, "executed", got, referencePredictSeq(m, h, executed))
			for i := range seq {
				seq[i] = 20 + 15*r.Float64()
			}
			if _, err := prep.EvalSeq(seq); err != nil {
				t.Fatal(err)
			}
			checkEquivalent(t, "random", prep.Prediction(), referencePredictSeq(m, h, seq))
		}
	}
}

func TestEvalAllocatesNothing(t *testing.T) {
	m, train, _ := trainSmall(t, 11)
	h, _ := HistoryAt(train, train.Len()-1, m.Config().L)
	prep, err := m.Prepare(h)
	if err != nil {
		t.Fatal(err)
	}
	seq := append([]float64(nil), train.Setpoint[:m.Config().L]...)
	sp := 20.0
	if n := testing.AllocsPerRun(100, func() {
		sp += 0.1
		prep.Eval(sp)
	}); n != 0 {
		t.Fatalf("Eval allocates %g times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := prep.EvalSeq(seq); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("EvalSeq allocates %g times per call", n)
	}
}

func TestPredictionOutlivesLaterEvals(t *testing.T) {
	m, train, _ := trainSmall(t, 12)
	h, _ := HistoryAt(train, train.Len()-1, m.Config().L)
	prep, err := m.Prepare(h)
	if err != nil {
		t.Fatal(err)
	}
	prep.Eval(22)
	first := prep.Prediction()
	snapshot := append([]float64(nil), first.DCTemps.Data...)
	prep.Eval(30)
	for i, v := range snapshot {
		if first.DCTemps.Data[i] != v {
			t.Fatalf("a later Eval rewrote a materialized prediction")
		}
	}
	if first.Setpoint != 22 || prep.Prediction().Setpoint != 30 {
		t.Fatalf("set-points %g / %g, want 22 / 30", first.Setpoint, prep.Prediction().Setpoint)
	}
}

func TestPrepareRejectsBadInputs(t *testing.T) {
	m, train, _ := trainSmall(t, 13)
	L := m.Config().L
	h, _ := HistoryAt(train, train.Len()-1, L)
	bad := *h
	bad.AvgPower = bad.AvgPower[:L-1]
	if _, err := m.Prepare(&bad); err == nil {
		t.Fatalf("short power history accepted")
	}
	prep, err := m.Prepare(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.EvalSeq(make([]float64, L+1)); err == nil {
		t.Fatalf("wrong set-point sequence length accepted")
	}
}

// TestSharedModelConcurrentPrepare runs many goroutines over one *Model,
// each preparing its own histories and scoring its own candidates, and
// requires exactly the serial results: the model is read-only and all
// scratch state lives in Prepared. Run under -race.
func TestSharedModelConcurrentPrepare(t *testing.T) {
	m, _, test := trainSmall(t, 14)
	L := m.Config().L
	const workers = 8
	var hs []*History
	for ti := L - 1; ti < test.Len(); ti += 7 {
		h, err := HistoryAt(test, ti, L)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	score := func(w, i int) (Score, error) {
		prep, err := m.Prepare(hs[i])
		if err != nil {
			return Score{}, err
		}
		var s Score
		for k := 0; k < 4; k++ {
			s = prep.Eval(20 + float64((w+i+k)%16))
		}
		return s, nil
	}
	want := make([][]Score, workers)
	for w := range want {
		want[w] = make([]Score, len(hs))
		for i := range hs {
			s, err := score(w, i)
			if err != nil {
				t.Fatal(err)
			}
			want[w][i] = s
		}
	}
	got := make([][]Score, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]Score, len(hs))
			for i := range hs {
				got[w][i], errs[w] = score(w, i)
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range hs {
			if got[w][i] != want[w][i] {
				t.Fatalf("worker %d history %d: concurrent %+v != serial %+v", w, i, got[w][i], want[w][i])
			}
		}
	}
}

// parentCascade is the Prepare/Eval cascade as it was before the DCS
// regressions were split by output: every horizon step's full Nd-output
// regression, history terms summed first, then the â columns. It is the
// bit-exact oracle for the split cold/rest blocks.
func parentCascade(m *Model, h *History, setpoints []float64) *Prediction {
	L, na, nd := m.cfg.L, m.na, m.nd
	sc := m.scale
	pHatN := make([]float64, L)
	xp := make([]float64, L)
	for j := 0; j < L; j++ {
		xp[j] = sc.pow(h.AvgPower[L-1-j])
	}
	m.asp.PredictInto(xp, pHatN)

	acuBase := mat.New(L, na)
	zAcu := make([]float64, na*L)
	for a := 0; a < na; a++ {
		for j := 0; j < L; j++ {
			zAcu[a*L+j] = sc.temp(h.ACUTemps[a][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		row := acuBase.Row(l)
		copy(row, m.acu[l].Bias)
		m.acu[l].AddTerms(row, 1, pHatN[l:l+1])
		m.acu[l].AddTerms(row, 2, zAcu)
	}
	dcsBase := mat.New(L, nd)
	zDC := make([]float64, nd*L)
	for k := 0; k < nd; k++ {
		for j := 0; j < L; j++ {
			zDC[k*L+j] = sc.temp(h.DCTemps[k][L-1-j])
		}
	}
	for l := 0; l < L; l++ {
		row := dcsBase.Row(l)
		full := m.dcsFull(l)
		copy(row, full.Bias)
		full.AddTerms(row, 0, pHatN[l:l+1])
		full.AddTerms(row, 1+na, zDC)
	}

	aHatN, dHatN := mat.New(L, na), mat.New(L, nd)
	xe := make([]float64, L+na*L)
	spN := xe[:L]
	for i, v := range setpoints {
		spN[i] = sc.sp(v)
	}
	for l := 0; l < L; l++ {
		aRow := aHatN.Row(l)
		copy(aRow, acuBase.Row(l))
		m.acu[l].AddTerms(aRow, 0, spN[l:l+1])
		dRow := dHatN.Row(l)
		copy(dRow, dcsBase.Row(l))
		m.dcsFull(l).AddTerms(dRow, 1, aRow)
		for a, v := range aRow {
			xe[L+a*L+l] = v
		}
	}
	eN := m.energy.Predict(xe)[0]

	p := &Prediction{Setpoint: setpoints[L-1]}
	p.EnergyKWh = sc.unEnergy(eN)
	if p.EnergyKWh < 0 {
		p.EnergyKWh = 0
	}
	p.EnergyNorm = sc.energy(p.EnergyKWh)
	for l := 0; l < L; l++ {
		var avg float64
		for _, v := range aHatN.Row(l) {
			avg += sc.unTemp(v)
		}
		avg /= float64(na)
		if u := setpoints[l] - avg; u > m.cfg.KappaC {
			p.Interruption += u
		}
	}
	p.InterruptionNorm = p.Interruption / m.TempRangeC()
	maxCold := -1e30
	for l := 0; l < L; l++ {
		row := dHatN.Row(l)
		for _, k := range m.cfg.ColdIdx {
			if v := sc.unTemp(row[k]); v > maxCold {
				maxCold = v
			}
		}
	}
	p.Constraint = maxCold - m.cfg.AllowedColdC
	p.AvgPower = make([]float64, L)
	for l, v := range pHatN {
		p.AvgPower[l] = sc.unPow(v)
	}
	p.ACUTemps = unTempAll(sc, aHatN)
	p.DCTemps = unTempAll(sc, dHatN)
	return p
}

// splitColdSets are cold-aisle index sets over the synthetic trace's four DC
// sensors: unsorted, non-contiguous strict subsets, a singleton, and every
// sensor (an empty rest block).
var splitColdSets = [][]int{{3, 1}, {2, 0}, {1}, {3, 0, 2}, {2, 0, 3, 1}}

func trainCold(t *testing.T, cold []int, seed uint64) (*Model, *dataset.Trace) {
	t.Helper()
	train, test := syntheticTrace(700, seed).Split(0.7)
	cfg := smallConfig()
	cfg.ColdIdx = cold
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, test
}

// TestSplitDCSMatchesParentCascade: with the DCS regressions split into cold
// and rest blocks, Eval and EvalSeq scores are == to the parent cascade's,
// and Prediction's full DC trajectories are bit-equal to the full per-output
// computation.
func TestSplitDCSMatchesParentCascade(t *testing.T) {
	for i, cold := range splitColdSets {
		m, test := trainCold(t, cold, uint64(30+i))
		L := m.Config().L
		r := rng.New(uint64(i))
		seq := make([]float64, L)
		for ti := L - 1; ti+L < test.Len(); ti += 9 {
			h, err := HistoryAt(test, ti, L)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := m.Prepare(h)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 4; k++ {
				sp := 20 + 15*r.Float64()
				for j := range seq {
					seq[j] = sp
				}
				checkBitEqual(t, cold, prep.Eval(sp), prep.Prediction(), parentCascade(m, h, seq))
				for j := range seq {
					seq[j] = 20 + 15*r.Float64()
				}
				s, err := prep.EvalSeq(seq)
				if err != nil {
					t.Fatal(err)
				}
				checkBitEqual(t, cold, s, prep.Prediction(), parentCascade(m, h, seq))
			}
		}
	}
}

func checkBitEqual(t *testing.T, cold []int, s Score, got, want *Prediction) {
	t.Helper()
	if s != want.Score || got.Score != want.Score || got.Setpoint != want.Setpoint {
		t.Fatalf("cold %v: score %+v / materialized %+v, parent %+v", cold, s, got.Score, want.Score)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"power", got.AvgPower, want.AvgPower},
		{"ACU", got.ACUTemps.Data, want.ACUTemps.Data},
		{"DC", got.DCTemps.Data, want.DCTemps.Data},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("cold %v: %s has %d values, parent %d", cold, c.name, len(c.got), len(c.want))
		}
		for i, v := range c.want {
			if c.got[i] != v {
				t.Fatalf("cold %v: %s[%d] = %v, parent %v", cold, c.name, i, c.got[i], v)
			}
		}
	}
}

// parentSave encodes the snapshot the way Save did when the model held each
// step's full DCS regression, from the full regressions as trainDCS fits
// them.
func parentSave(t *testing.T, m *Model, dcs []*linreg.Model) []byte {
	t.Helper()
	snap := modelSnapshot{
		Version: snapshotVersion,
		Cfg:     m.cfg,
		Na:      m.na, Nd: m.nd,
		Scale: scalerSnapshot{
			TempMin: m.scale.TempMin, TempMax: m.scale.TempMax,
			PowMin: m.scale.PowMin, PowMax: m.scale.PowMax,
			SpMin: m.scale.SpMin, SpMax: m.scale.SpMax,
			EMin: m.scale.EMin, EMax: m.scale.EMax,
		},
		ASP:    snapLinreg(m.asp),
		Energy: snapLinreg(m.energy),
	}
	for _, sub := range m.acu {
		snap.ACU = append(snap.ACU, snapLinreg(sub))
	}
	for _, sub := range dcs {
		snap.DCS = append(snap.DCS, snapLinreg(sub))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSplitDCSSnapshotBytesUnchanged: Save writes the bytes the full-block
// model wrote, and Save → Load → Save reproduces them exactly.
func TestSplitDCSSnapshotBytesUnchanged(t *testing.T) {
	for i, cold := range splitColdSets {
		train, _ := syntheticTrace(700, uint64(40+i)).Split(0.7)
		cfg := smallConfig()
		cfg.ColdIdx = cold
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var anchors []int
		for a := cfg.L - 1; a+cfg.L < train.Len(); a += cfg.Stride {
			anchors = append(anchors, a)
		}
		full, err := trainDCS(train, anchors, m.scale, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := parentSave(t, m, full)

		var first bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), want) {
			t.Fatalf("cold %v: Save wrote %d bytes that differ from the full-block format (%d bytes)", cold, first.Len(), len(want))
		}
		back, err := Load(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), want) {
			t.Fatalf("cold %v: Save → Load → Save changed the snapshot bytes", cold)
		}
	}
}
