package experiments

import (
	"testing"

	"wpred/internal/bench"
	"wpred/internal/core"
	"wpred/internal/faults"
	"wpred/internal/telemetry"
)

// TestRobustnessZeroRateReproducesCleanPrediction is the determinism half
// of the chaos test: a 0%-rate injector plus the always-on sanitization
// pass must leave the end-to-end prediction bit-identical to the clean
// pipeline's.
func TestRobustnessZeroRateReproducesCleanPrediction(t *testing.T) {
	s := NewSuite(42)
	s.Quick = true
	sku2 := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	sku8 := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	refs := []string{bench.TPCCName, bench.TwitterName, bench.TPCHName}
	refExps, err := s.Experiments(refs, []telemetry.SKU{sku2, sku8}, []int{8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	target, err := s.Experiments([]string{bench.YCSBName}, []telemetry.SKU{sku2}, []int{8}, 3)
	if err != nil {
		t.Fatal(err)
	}

	predict := func(re, te []*telemetry.Experiment) *core.Prediction {
		p, err := core.TrainPipeline(core.Config{Seed: 42, Subsamples: s.Subsamples()}, re)
		if err != nil {
			t.Fatal(err)
		}
		pred, dropped, err := p.PredictWithReport(te, sku8)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Dropped()) != 0 || len(dropped) != 0 {
			t.Fatalf("clean experiments dropped: %v %v", p.Dropped(), dropped)
		}
		return pred
	}

	clean := predict(refExps, target)
	in := &faults.Injector{Seed: 42, Rate: 0}
	zero := predict(in.Corrupt(refExps), in.Corrupt(target))
	if clean.PredictedThroughput != zero.PredictedThroughput {
		t.Fatalf("0%% fault rate changed the prediction: %v vs %v",
			clean.PredictedThroughput, zero.PredictedThroughput)
	}
	if clean.NearestReference != zero.NearestReference {
		t.Fatalf("0%% fault rate changed the nearest reference: %s vs %s",
			clean.NearestReference, zero.NearestReference)
	}
}

// TestRobustnessSweepBoundedDegradation is the degradation half of the
// chaos test: at fault rates up to 5% every fault model must still produce
// a prediction, with error bounded below 100% APE.
func TestRobustnessSweepBoundedDegradation(t *testing.T) {
	s := NewSuite(42)
	s.Quick = true
	res, err := s.Robustness()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(faults.AllModels())+1 {
		t.Fatalf("%d rows, want %d models + all", len(res.Rows), len(faults.AllModels()))
	}
	for _, row := range res.Rows {
		if len(row.Cells) != len(RobustnessRates) {
			t.Fatalf("row %s has %d cells, want %d", row.Model, len(row.Cells), len(RobustnessRates))
		}
		if row.Cells[0].APE != res.CleanAPE || row.Cells[0].Err != "" {
			t.Fatalf("row %s rate-0 cell %v diverges from the clean baseline %v",
				row.Model, row.Cells[0], res.CleanAPE)
		}
		for _, c := range row.Cells {
			if c.Rate > 0.05 {
				continue
			}
			if c.Err != "" {
				t.Errorf("row %s at %.0f%%: pipeline failed (%s), want graceful degradation",
					row.Model, 100*c.Rate, c.Err)
			} else if c.APE > 1.0 {
				t.Errorf("row %s at %.0f%%: APE %.3f exceeds the 100%% degradation bound",
					row.Model, 100*c.Rate, c.APE)
			}
		}
	}
}

// TestRobustnessDeterministic reruns the whole sweep from a fresh suite
// and requires an identical rendering — the property that makes committed
// EXPERIMENTS.md numbers reproducible.
func TestRobustnessDeterministic(t *testing.T) {
	render := func() string {
		s := NewSuite(42)
		s.Quick = true
		res, err := s.Robustness()
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().Render()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("robustness sweep is not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestRobustnessRunnerRegistered(t *testing.T) {
	r, ok := RunnerByID("robustness")
	if !ok {
		t.Fatal("robustness runner not registered")
	}
	if r.Description == "" {
		t.Fatal("runner has no description")
	}
}

// TestRobustnessTargetOverride swaps the target onto a reference workload
// and checks the colliding reference is replaced.
func TestRobustnessTargetOverride(t *testing.T) {
	s := NewSuite(42)
	s.Quick = true
	s.RobustnessTarget = bench.TwitterName
	res, err := s.Robustness()
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != bench.TwitterName {
		t.Fatalf("target = %s", res.Target)
	}
	for _, ref := range res.References {
		if ref == bench.TwitterName {
			t.Fatal("target workload still among the references")
		}
	}
}
