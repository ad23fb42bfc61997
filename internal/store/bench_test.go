package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"tesla/internal/bo"
	"tesla/internal/testbed"
)

// benchRecord is one control-step record with the default testbed's sensor
// shape (2 ACU + 35 DC probes), so the framed size matches what a room
// appends every simulated minute.
func benchRecord(b *testing.B) Record {
	cfg := testbed.DefaultConfig()
	cfg.Seed = 7
	tb, err := testbed.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tb.SetSetpoint(23)
	var s testbed.Sample
	for i := 0; i < 3; i++ {
		s = tb.Advance()
	}
	return Record{Kind: KindStep, Setpoint: 23, Level: 1, Sample: s}
}

func BenchmarkWALAppend(b *testing.B) {
	r := benchRecord(b)
	for _, bc := range []struct {
		name string
		sync int
	}{
		{"sync-every", 0},
		{"sync-batch32", 32},
		{"sync-never", -1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w, _, err := OpenWAL(b.TempDir(), WALOptions{SyncEvery: bc.sync}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			payload := r.Encode(nil)
			b.SetBytes(int64(frameHeaderLen + len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Step = uint32(i)
				if err := w.AppendRecord(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRecover(b *testing.B) {
	r := benchRecord(b)
	for _, n := range []int{1000, 5000, 20000} {
		b.Run(fmt.Sprintf("records%d", n), func(b *testing.B) {
			dir := b.TempDir()
			w, _, err := OpenWAL(dir, WALOptions{SyncEvery: -1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := w.AppendRecord(&r); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := 0
				w, rec, err := OpenWAL(dir, WALOptions{SyncEvery: -1}, func(p []byte) error {
					if _, err := DecodeRecord(p); err != nil {
						return err
					}
					got++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if rec.Records != n || got != n {
					b.Fatalf("recovered %d/%d", rec.Records, got)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint measures a controller checkpoint against its size in
// BO observations, the unit a TESLA snapshot grows in (bo.ResultState keeps
// the observation history; GPs are refit on restore): the gob encode, and
// the atomic WriteCheckpoint (WAL sync + temp file + fsync + rename).
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		evals := make([]bo.Evaluation, n)
		for i := range evals {
			x := 20 + 15*float64(i)/float64(n)
			evals[i] = bo.Evaluation{
				X: x, Obj: math.Sin(x/3) + 0.02*x, Con: x - 29,
				ObjNoiseVar: 1e-4, ConNoiseVar: 1e-4,
			}
		}
		state := bo.ResultState{X: 26, Feasible: true, Evals: evals}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(state); err != nil {
			b.Fatal(err)
		}
		blob := append([]byte(nil), buf.Bytes()...)
		b.Run(fmt.Sprintf("obs%d/encode", n), func(b *testing.B) {
			b.ReportMetric(float64(len(blob)), "snapshot_bytes")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := gob.NewEncoder(&buf).Encode(state); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("obs%d/write", n), func(b *testing.B) {
			st, _, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportMetric(float64(len(blob)), "snapshot_bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.WriteCheckpoint(Checkpoint{Step: i + 1, Policy: blob}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
