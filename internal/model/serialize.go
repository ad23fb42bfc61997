package model

import (
	"encoding/gob"
	"fmt"
	"io"

	"tesla/internal/linreg"
	"tesla/internal/mat"
)

// The on-disk representation: exported mirror structs encoded with gob.
// A version tag guards against silently decoding an incompatible layout.

const snapshotVersion = 1

type denseSnapshot struct {
	Rows, Cols int
	Data       []float64
}

type linregSnapshot struct {
	Weights denseSnapshot
	Bias    []float64
	Alpha   float64
}

type modelSnapshot struct {
	Version int
	Cfg     Config
	Na, Nd  int
	Scale   scalerSnapshot
	ASP     linregSnapshot
	ACU     []linregSnapshot
	DCS     []linregSnapshot
	Energy  linregSnapshot
}

type scalerSnapshot struct {
	TempMin, TempMax float64
	PowMin, PowMax   float64
	SpMin, SpMax     float64
	EMin, EMax       float64
}

func snapDense(d *mat.Dense) denseSnapshot {
	return denseSnapshot{Rows: d.Rows, Cols: d.Cols, Data: append([]float64(nil), d.Data...)}
}

func unsnapDense(s denseSnapshot) (*mat.Dense, error) {
	if s.Rows < 0 || s.Cols < 0 || len(s.Data) != s.Rows*s.Cols {
		return nil, fmt.Errorf("model: corrupt matrix snapshot %dx%d with %d values", s.Rows, s.Cols, len(s.Data))
	}
	return mat.NewFromSlice(s.Rows, s.Cols, s.Data), nil
}

func snapLinreg(m *linreg.Model) linregSnapshot {
	return linregSnapshot{
		Weights: snapDense(m.Weights),
		Bias:    append([]float64(nil), m.Bias...),
		Alpha:   m.Alpha,
	}
}

func unsnapLinreg(s linregSnapshot) (*linreg.Model, error) {
	w, err := unsnapDense(s.Weights)
	if err != nil {
		return nil, err
	}
	if len(s.Bias) != w.Cols {
		return nil, fmt.Errorf("model: bias length %d does not match %d outputs", len(s.Bias), w.Cols)
	}
	return &linreg.Model{Weights: w, Bias: s.Bias, Alpha: s.Alpha}, nil
}

// Save serializes the trained model (weights, biases, normalization ranges
// and configuration) so a deployment can train once and control forever.
func (m *Model) Save(w io.Writer) error {
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
	for l := range m.dcsCold {
		snap.DCS = append(snap.DCS, snapLinreg(m.dcsFull(l)))
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load reconstructs a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("model: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("model: snapshot version %d, this build reads %d", snap.Version, snapshotVersion)
	}
	if err := snap.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("model: snapshot config: %w", err)
	}
	if len(snap.ACU) != snap.Cfg.L || len(snap.DCS) != snap.Cfg.L {
		return nil, fmt.Errorf("model: snapshot has %d/%d per-step banks for horizon %d",
			len(snap.ACU), len(snap.DCS), snap.Cfg.L)
	}
	m := &Model{
		cfg: snap.Cfg,
		na:  snap.Na, nd: snap.Nd,
		scale: scaler{
			TempMin: snap.Scale.TempMin, TempMax: snap.Scale.TempMax,
			PowMin: snap.Scale.PowMin, PowMax: snap.Scale.PowMax,
			SpMin: snap.Scale.SpMin, SpMax: snap.Scale.SpMax,
			EMin: snap.Scale.EMin, EMax: snap.Scale.EMax,
		},
	}
	var err error
	if m.asp, err = unsnapLinreg(snap.ASP); err != nil {
		return nil, fmt.Errorf("model: ASP bank: %w", err)
	}
	if m.energy, err = unsnapLinreg(snap.Energy); err != nil {
		return nil, fmt.Errorf("model: energy bank: %w", err)
	}
	for i, s := range snap.ACU {
		sub, err := unsnapLinreg(s)
		if err != nil {
			return nil, fmt.Errorf("model: ACU bank %d: %w", i, err)
		}
		m.acu = append(m.acu, sub)
	}
	for _, k := range snap.Cfg.ColdIdx {
		if k < 0 || k >= snap.Nd {
			return nil, fmt.Errorf("model: cold-aisle index %d outside [0,%d)", k, snap.Nd)
		}
	}
	dcs := make([]*linreg.Model, len(snap.DCS))
	for i, s := range snap.DCS {
		if dcs[i], err = unsnapLinreg(s); err != nil {
			return nil, fmt.Errorf("model: DCS bank %d: %w", i, err)
		}
		if dcs[i].NumOutputs() != snap.Nd {
			return nil, fmt.Errorf("model: DCS bank %d has %d outputs, want %d", i, dcs[i].NumOutputs(), snap.Nd)
		}
	}
	m.setDCS(dcs)
	return m, nil
}
