package model

import "testing"

// BenchmarkTrain measures fitting all four sub-modules on a small synthetic
// trace (the blocked-Gram path included).
func BenchmarkTrain(b *testing.B) {
	tr := syntheticTrace(700, 42)
	train, _ := tr.Split(0.8)
	cfg := smallConfigForBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures one full prediction (ASP → ACU → DCS →
// energy): Prepare, one evaluation and the materialized trajectories.
func BenchmarkPredict(b *testing.B) {
	tr := syntheticTrace(700, 42)
	train, _ := tr.Split(0.8)
	cfg := smallConfigForBench()
	m, err := Train(train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h, err := HistoryAt(train, train.Len()-1, cfg.L)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(h, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func smallConfigForBench() Config {
	cfg := DefaultConfig(2)
	cfg.L = 6
	return cfg
}
