package core

import (
	"testing"

	"wpred/internal/bench"
	"wpred/internal/scalemodel"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// simulateQuick runs a short simulated experiment for pipeline tests.
func simulateQuick(w *simdb.Workload, sku telemetry.SKU, terms, run int, src *telemetry.Source) *telemetry.Experiment {
	return simdb.Simulate(w, simdb.Config{
		SKU: sku, Terminals: terms, Run: run, DataGroup: run % 3, Ticks: 60,
	}, src)
}

func trainedPipeline(t *testing.T) (*Pipeline, []*telemetry.Experiment, telemetry.SKU, telemetry.SKU) {
	t.Helper()
	refs, small, large := referenceSuite(t)
	p, err := TrainPipeline(Config{Seed: 12, Subsamples: 5}, refs)
	if err != nil {
		t.Fatal(err)
	}
	return p, refs, small, large
}

// referenceSuite simulates three reference workloads on a 2- and an
// 8-CPU SKU, three short runs each.
func referenceSuite(tb testing.TB) (refs []*telemetry.Experiment, small, large telemetry.SKU) {
	tb.Helper()
	src := telemetry.NewSource(12)
	small = telemetry.SKU{CPUs: 2, MemoryGB: 16}
	large = telemetry.SKU{CPUs: 8, MemoryGB: 64}
	for _, name := range []string{bench.TPCCName, bench.TwitterName, bench.TPCHName} {
		w, err := bench.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		terms := 8
		if bench.Serial(name) {
			terms = 1
		}
		for _, sku := range []telemetry.SKU{small, large} {
			for r := 0; r < 3; r++ {
				refs = append(refs, simulateQuick(w, sku, terms, r, src))
			}
		}
	}
	return refs, small, large
}

func TestPipelineTrainSelectsFeatures(t *testing.T) {
	p, _, _, _ := trainedPipeline(t)
	feats := p.SelectedFeatures()
	if len(feats) != 7 {
		t.Fatalf("selected %d features, want 7", len(feats))
	}
	seen := map[telemetry.Feature]bool{}
	for _, f := range feats {
		if seen[f] {
			t.Fatalf("duplicate selected feature %v", f)
		}
		seen[f] = true
	}
}

func TestPipelinePredictEndToEnd(t *testing.T) {
	p, _, small, large := trainedPipeline(t)
	src := telemetry.NewSource(13)
	ycsb, _ := bench.ByName(bench.YCSBName)
	var target []*telemetry.Experiment
	for r := 0; r < 3; r++ {
		target = append(target, simulateQuick(ycsb, small, 8, r, src))
	}
	pred, _, err := p.PredictWithReport(target, large)
	if err != nil {
		t.Fatal(err)
	}
	if pred.NearestReference == "" {
		t.Fatal("no nearest reference")
	}
	if pred.PredictedThroughput <= pred.ObservedThroughput {
		t.Fatalf("scaling 2→8 CPUs must predict higher throughput (%v → %v)",
			pred.ObservedThroughput, pred.PredictedThroughput)
	}
	if pred.ScalingFactor < 1 || pred.ScalingFactor > 5 {
		t.Fatalf("scaling factor %v implausible", pred.ScalingFactor)
	}
	if len(pred.Distances) != 3 {
		t.Fatalf("distances for %d references, want 3", len(pred.Distances))
	}
	if pred.FromSKU != small || pred.ToSKU != large {
		t.Fatal("SKUs not recorded")
	}
	if !(pred.PredictedLo <= pred.PredictedThroughput && pred.PredictedThroughput <= pred.PredictedHi) {
		t.Fatalf("interval (%v, %v, %v) malformed",
			pred.PredictedLo, pred.PredictedThroughput, pred.PredictedHi)
	}
	if pred.PredictedLo == pred.PredictedHi {
		t.Fatal("interval should be non-degenerate when both SKUs are profiled")
	}
	// Actual throughput should be within a factor 2 of the prediction.
	actual := simulateQuick(ycsb, large, 8, 0, src).Throughput
	ratio := pred.PredictedThroughput / actual
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("prediction %v vs actual %v off by >2x", pred.PredictedThroughput, actual)
	}
}

func TestPipelineSingleContext(t *testing.T) {
	src := telemetry.NewSource(14)
	small := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	large := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	var refs []*telemetry.Experiment
	w, _ := bench.ByName(bench.TPCCName)
	for _, sku := range []telemetry.SKU{small, large} {
		for r := 0; r < 3; r++ {
			refs = append(refs, simulateQuick(w, sku, 8, r, src))
		}
	}
	p, err := TrainPipeline(Config{Seed: 14, Subsamples: 5, Context: scalemodel.Single}, refs)
	if err != nil {
		t.Fatal(err)
	}
	ycsb, _ := bench.ByName(bench.YCSBName)
	target := []*telemetry.Experiment{simulateQuick(ycsb, small, 8, 0, src)}
	pred, _, err := p.PredictWithReport(target, large)
	if err != nil {
		t.Fatal(err)
	}
	if pred.PredictedThroughput <= 0 {
		t.Fatalf("single-context prediction = %v", pred.PredictedThroughput)
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := TrainPipeline(Config{}, nil); err == nil {
		t.Fatal("training without references must error")
	}
	if _, _, err := new(Pipeline).PredictWithReport(nil, telemetry.SKU{CPUs: 8}); err == nil {
		t.Fatal("predicting untrained must error")
	}

	p2, _, small, large := trainedPipeline(t)
	if _, _, err := p2.PredictWithReport(nil, large); err == nil {
		t.Fatal("empty target must error")
	}
	// Targets spanning SKUs must be rejected.
	src := telemetry.NewSource(15)
	ycsb, _ := bench.ByName(bench.YCSBName)
	mixed := []*telemetry.Experiment{
		simulateQuick(ycsb, small, 8, 0, src),
		simulateQuick(ycsb, large, 8, 0, src),
	}
	if _, _, err := p2.PredictWithReport(mixed, large); err == nil {
		t.Fatal("mixed-SKU target must error")
	}
}

// TestPipelineIndexedSimilarity forces the VP-tree reference path by
// dropping IndexThreshold to 1 and checks the end-to-end contract: the
// prediction stays sane, and on this clustered reference suite the
// indexed decision agrees with the exhaustive one (deterministic data, so
// a pass is stable).
func TestPipelineIndexedSimilarity(t *testing.T) {
	refs, small, large := referenceSuite(t)
	indexed, err := TrainPipeline(Config{Seed: 12, Subsamples: 5, IndexThreshold: 1}, refs)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := TrainPipeline(Config{Seed: 12, Subsamples: 5, IndexThreshold: -1}, refs)
	if err != nil {
		t.Fatal(err)
	}

	tsrc := telemetry.NewSource(13)
	ycsb, _ := bench.ByName(bench.YCSBName)
	var target []*telemetry.Experiment
	for r := 0; r < 3; r++ {
		target = append(target, simulateQuick(ycsb, small, 8, r, tsrc))
	}
	got, _, err := indexed.PredictWithReport(target, large)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := exhaustive.PredictWithReport(target, large)
	if err != nil {
		t.Fatal(err)
	}
	if got.NearestReference == "" || len(got.Distances) == 0 {
		t.Fatalf("indexed path returned no similarity evidence: %+v", got)
	}
	if got.NearestReference != want.NearestReference {
		t.Fatalf("indexed nearest %q != exhaustive %q", got.NearestReference, want.NearestReference)
	}
	if got.PredictedThroughput <= 0 {
		t.Fatalf("implausible indexed prediction %v", got.PredictedThroughput)
	}
	// Second Predict reuses the cached index (covered by -race).
	if _, _, err := indexed.PredictWithReport(target, large); err != nil {
		t.Fatal(err)
	}
}
