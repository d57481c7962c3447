package wpred

import "testing"

func TestPublicAPISurface(t *testing.T) {
	if len(WorkloadNames()) != 6 {
		t.Fatalf("WorkloadNames = %v", WorkloadNames())
	}
	if len(ReferenceWorkloads()) != 5 {
		t.Fatal("five standardized reference workloads")
	}
	if len(DefaultSKUs()) != 4 {
		t.Fatal("four default SKUs")
	}
	if len(SelectionStrategies(1)) != 17 {
		t.Fatal("16 strategies + baseline")
	}
	if len(Norms()) != 6 {
		t.Fatal("six matrix norms")
	}
	if len(TimeSeriesMetrics()) != 4 {
		t.Fatal("DTW/LCSS dependent+independent")
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestEndToEndViaPublicAPI(t *testing.T) {
	src := NewSource(42)
	small := SKU{CPUs: 2, MemoryGB: 16}
	large := SKU{CPUs: 8, MemoryGB: 64}

	var refs []*Workload
	for _, w := range ReferenceWorkloads() {
		if w.Name != "YCSB" && w.Name != "TPC-DS" {
			refs = append(refs, w)
		}
	}
	refExps := GenerateSuite(refs, []SKU{small, large}, []int{8}, 3, src)
	// TPC-C 6, Twitter 6, TPC-H (serial) 6.
	if len(refExps) != 18 {
		t.Fatalf("suite = %d experiments", len(refExps))
	}

	p, err := TrainPipeline(PipelineConfig{Seed: 42, Subsamples: 5}, refExps)
	if err != nil {
		t.Fatal(err)
	}

	ycsb, err := WorkloadByName("YCSB")
	if err != nil {
		t.Fatal(err)
	}
	target := GenerateSuite([]*Workload{ycsb}, []SKU{small}, []int{8}, 3, src)
	pred, _, err := p.PredictWithReport(target, large)
	if err != nil {
		t.Fatal(err)
	}
	if pred.NearestReference != "TPC-C" {
		t.Fatalf("nearest = %s, want TPC-C", pred.NearestReference)
	}
	if pred.PredictedThroughput <= pred.ObservedThroughput {
		t.Fatal("2→8 CPU prediction must scale up")
	}

	// Ground truth sanity: within 50%.
	actual := GenerateSuite([]*Workload{ycsb}, []SKU{large}, []int{8}, 1, src)[0].Throughput
	ratio := pred.PredictedThroughput / actual
	if ratio < 0.5 || ratio > 1.5 {
		t.Fatalf("prediction %v vs actual %v", pred.PredictedThroughput, actual)
	}
}

func TestSimulateDeterministicViaPublicAPI(t *testing.T) {
	w, err := WorkloadByName("Twitter")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{SKU: SKU{CPUs: 4, MemoryGB: 32}, Terminals: 8, Ticks: 40}
	a := Simulate(w, cfg, NewSource(9))
	w2, _ := WorkloadByName("Twitter")
	b := Simulate(w2, cfg, NewSource(9))
	if a.Throughput != b.Throughput {
		t.Fatal("public Simulate must be deterministic per seed")
	}
}
