package core

import (
	"testing"

	"wpred/internal/bench"
	"wpred/internal/telemetry"
)

// TestRooflineClampLimitsExtrapolation trains on a saturating workload
// (Twitter at 8 terminals flattens between 8 and 16 CPUs) and predicts a
// Twitter-like target at 16 CPUs with a single-context linear model, which
// extrapolates past the knee. The clamp must cut the prediction down to
// the reference ceiling.
func TestRooflineClampLimitsExtrapolation(t *testing.T) {
	src := telemetry.NewSource(21)
	skus := []telemetry.SKU{
		{CPUs: 2, MemoryGB: 16},
		{CPUs: 4, MemoryGB: 32},
		{CPUs: 8, MemoryGB: 64},
		{CPUs: 16, MemoryGB: 128},
	}
	tw, err := bench.ByName(bench.TwitterName)
	if err != nil {
		t.Fatal(err)
	}
	var refs []*telemetry.Experiment
	for _, sku := range skus {
		for r := 0; r < 3; r++ {
			refs = append(refs, simulateQuick(tw, sku, 8, r, src))
		}
	}

	build := func(clamp bool) float64 {
		p, err := TrainPipeline(Config{Seed: 21, Subsamples: 5, RooflineClamp: clamp}, refs)
		if err != nil {
			t.Fatal(err)
		}
		tw2, _ := bench.ByName(bench.TwitterName)
		target := []*telemetry.Experiment{simulateQuick(tw2, skus[0], 8, 7, src)}
		pred, _, err := p.PredictWithReport(target, skus[3])
		if err != nil {
			t.Fatal(err)
		}
		return pred.PredictedThroughput
	}

	unclamped := build(false)
	clamped := build(true)
	if clamped > unclamped {
		t.Fatalf("clamp must never raise the prediction (%v vs %v)", clamped, unclamped)
	}

	// Ground truth at 16 CPUs: Twitter t8 saturates, so the clamped
	// prediction must be nearer the truth than any above-ceiling value.
	tw3, _ := bench.ByName(bench.TwitterName)
	actual := simulateQuick(tw3, skus[3], 8, 9, src).Throughput
	if clamped > actual*1.6 {
		t.Fatalf("clamped prediction %v still far above actual %v", clamped, actual)
	}
}
