package nnet

import (
	"math/rand/v2"
	"testing"

	"wpred/internal/mat"
)

// BenchmarkFitMLP measures repeated full-batch Adam training runs on one
// model instance; the per-sample activation and gradient buffers are the
// allocation hot path.
func BenchmarkFitMLP(b *testing.B) {
	const n, c = 60, 6
	rng := rand.New(rand.NewPCG(11, 0x9a7))
	x := mat.New(n, c)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		y[i] = x.At(i, 0) - x.At(i, 1) + 0.05*rng.NormFloat64()
	}
	m := &MLP{Hidden: []int{16, 16}, Epochs: 40, Standardize: true, Seed: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitMLPScaling measures one fit of the shape a pairwise NNet
// scaling model trains: a single input (the observed throughput on the
// source SKU), 30 rows, the default six 50-unit layers, and the default
// 200 epochs on raw scales. ReLU leaves many units dead on this data, so
// the inline path's zero skipping sets its cost.
func BenchmarkFitMLPScaling(b *testing.B) {
	const n = 30
	rng := rand.New(rand.NewPCG(5, 6))
	x := mat.New(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 300 + rng.Float64()*80
		x.Set(i, 0, v)
		y[i] = 1.4*v + 5*rng.NormFloat64()
	}
	m := &MLP{Seed: 42}
	if err := m.Fit(x, y); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
