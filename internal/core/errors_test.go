package core

import (
	"errors"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/telemetry"
)

// wreck truncates an experiment's series below the sanitizer's MinTicks
// threshold so it is guaranteed to be rejected.
func wreck(e *telemetry.Experiment) *telemetry.Experiment {
	c := e.Clone()
	for f := 0; f < telemetry.NumResourceFeatures; f++ {
		c.Resources.Samples[f] = c.Resources.Samples[f][:8]
	}
	c.ThroughputSeries = c.ThroughputSeries[:8]
	return c
}

func TestTrainSentinelErrors(t *testing.T) {
	if _, err := TrainPipeline(Config{}, nil); !errors.Is(err, ErrNoReferences) {
		t.Fatalf("TrainPipeline(nil) = %v, want ErrNoReferences", err)
	}
	if _, err := Train(Config{}, nil); !errors.Is(err, ErrNoReferences) {
		t.Fatalf("Train(nil) = %v, want ErrNoReferences", err)
	}

	// All references unusable → ErrTooFewReferences with full accounting.
	src := telemetry.NewSource(21)
	w, _ := bench.ByName(bench.TPCCName)
	sku := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	var refs []*telemetry.Experiment
	for r := 0; r < 3; r++ {
		refs = append(refs, wreck(simulateQuick(w, sku, 8, r, src)))
	}
	_, err := TrainPipeline(Config{}, refs)
	if !errors.Is(err, ErrTooFewReferences) {
		t.Fatalf("Train(all wrecked) = %v, want ErrTooFewReferences", err)
	}
	var ire *InsufficientReferencesError
	if !errors.As(err, &ire) {
		t.Fatalf("error %v is not an *InsufficientReferencesError", err)
	}
	if ire.Usable != 0 || ire.Total != 3 || ire.Min != 2 {
		t.Fatalf("accounting Usable=%d Total=%d Min=%d, want 0/3/2", ire.Usable, ire.Total, ire.Min)
	}
	if len(ire.Dropped) != 3 {
		t.Fatalf("Dropped carries %d entries, want 3", len(ire.Dropped))
	}
	for _, d := range ire.Dropped {
		if d.Stage != "train" || d.Report == nil || d.Report.Usable() {
			t.Fatalf("malformed dropped entry %+v", d)
		}
	}
}

func TestPredictSentinelErrors(t *testing.T) {
	if _, _, err := new(Pipeline).PredictWithReport(nil, telemetry.SKU{CPUs: 8}); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("zero Pipeline predict = %v, want ErrNotTrained", err)
	}

	p2, _, small, large := trainedPipeline(t)
	if _, _, err := p2.PredictWithReport(nil, large); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("empty target = %v, want ErrNoTargets", err)
	}

	src := telemetry.NewSource(22)
	ycsb, _ := bench.ByName(bench.YCSBName)
	mixed := []*telemetry.Experiment{
		simulateQuick(ycsb, small, 8, 0, src),
		simulateQuick(ycsb, large, 8, 0, src),
	}
	if _, _, err := p2.PredictWithReport(mixed, large); !errors.Is(err, ErrMixedSKUs) {
		t.Fatalf("mixed-SKU target = %v, want ErrMixedSKUs", err)
	}

	bad := []*telemetry.Experiment{wreck(simulateQuick(ycsb, small, 8, 0, src))}
	if _, _, err := p2.PredictWithReport(bad, large); !errors.Is(err, ErrNoUsableTargets) {
		t.Fatalf("all-wrecked target = %v, want ErrNoUsableTargets", err)
	}
}

func TestTrainDropsUnusableReferences(t *testing.T) {
	src := telemetry.NewSource(23)
	small := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	large := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	var refs []*telemetry.Experiment
	for _, name := range []string{bench.TPCCName, bench.TwitterName} {
		w, _ := bench.ByName(name)
		for _, sku := range []telemetry.SKU{small, large} {
			for r := 0; r < 3; r++ {
				refs = append(refs, simulateQuick(w, sku, 8, r, src))
			}
		}
	}
	wrecked := wreck(refs[0].Clone())
	refs = append(refs, wrecked)

	p, err := TrainPipeline(Config{Seed: 23, Subsamples: 5}, refs)
	if err != nil {
		t.Fatalf("Train must survive one bad reference: %v", err)
	}
	dropped := p.Dropped()
	if len(dropped) != 1 {
		t.Fatalf("Dropped() has %d entries, want 1", len(dropped))
	}
	d := dropped[0]
	if d.Stage != "train" || d.Workload != bench.TPCCName || d.Report.Usable() {
		t.Fatalf("dropped entry %+v malformed", d)
	}

	// A dirty-but-recoverable prediction target is dropped with stage
	// "predict" while the prediction still succeeds on the clean runs.
	ycsb, _ := bench.ByName(bench.YCSBName)
	target := []*telemetry.Experiment{
		simulateQuick(ycsb, small, 8, 0, src),
		wreck(simulateQuick(ycsb, small, 8, 1, src)),
	}
	pred, predDropped, err := p.PredictWithReport(target, large)
	if err != nil {
		t.Fatalf("Predict must survive one bad target: %v", err)
	}
	if pred.PredictedThroughput <= 0 {
		t.Fatalf("degraded prediction %v", pred.PredictedThroughput)
	}
	if len(predDropped) != 1 {
		t.Fatalf("PredictWithReport dropped %d targets, want 1", len(predDropped))
	}
	if predDropped[0].Stage != "predict" || predDropped[0].Workload != bench.YCSBName {
		t.Fatalf("predict-stage entry %+v malformed", predDropped[0])
	}
	if n := len(p.Dropped()); n != 1 {
		t.Fatalf("Dropped() has %d entries after a prediction, want the 1 train drop", n)
	}
}

// TestPredictFallsBackToUsableReference removes the large SKU from every
// reference workload except TPC-H: whichever workload the target matches,
// the ranked fallback must land on the only reference that can scale.
func TestPredictFallsBackToUsableReference(t *testing.T) {
	src := telemetry.NewSource(24)
	small := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	large := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	var refs []*telemetry.Experiment
	for _, name := range []string{bench.TPCCName, bench.TwitterName, bench.TPCHName} {
		w, _ := bench.ByName(name)
		terms := 8
		if bench.Serial(name) {
			terms = 1
		}
		skus := []telemetry.SKU{small}
		if name == bench.TPCHName {
			skus = []telemetry.SKU{small, large}
		}
		for _, sku := range skus {
			for r := 0; r < 3; r++ {
				refs = append(refs, simulateQuick(w, sku, terms, r, src))
			}
		}
	}
	p, err := TrainPipeline(Config{Seed: 24, Subsamples: 5}, refs)
	if err != nil {
		t.Fatal(err)
	}
	ycsb, _ := bench.ByName(bench.YCSBName)
	target := []*telemetry.Experiment{simulateQuick(ycsb, small, 8, 0, src)}
	pred, _, err := p.PredictWithReport(target, large)
	if err != nil {
		t.Fatalf("fallback must find the scalable reference: %v", err)
	}
	if pred.NearestReference != bench.TPCHName {
		t.Fatalf("NearestReference = %s, want fallback to %s", pred.NearestReference, bench.TPCHName)
	}

	// With no workload able to scale, Predict reports ErrNoScalingReference.
	var smallOnly []*telemetry.Experiment
	for _, e := range refs {
		if e.SKU == small {
			smallOnly = append(smallOnly, e)
		}
	}
	p2, err := TrainPipeline(Config{Seed: 24, Subsamples: 5}, smallOnly)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p2.PredictWithReport(target, large); !errors.Is(err, ErrNoScalingReference) {
		t.Fatalf("unscalable references = %v, want ErrNoScalingReference", err)
	}
}
