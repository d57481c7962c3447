// SKU migration: the Example-1 / §6.2.3 scenario. A customer wants to move
// their workload from S1 (4 CPUs / 32 GB) to S2 (8 CPUs / 64 GB) while
// keeping their SLAs. Before migrating, the provider predicts the
// workload's throughput on S2 from (i) its telemetry on S1 and (ii) the
// scaling behavior of the most similar reference benchmark — and shows
// what happens when the wrong reference is used.
//
//	go run ./examples/skumigration
package main

import (
	"fmt"
	"log"

	"wpred"
)

func main() {
	src := wpred.NewSource(7)
	s1 := wpred.SKU{CPUs: 4, MemoryGB: 32}
	s2 := wpred.SKU{CPUs: 8, MemoryGB: 64}

	// Reference fleet knowledge: TPC-C, TPC-H and Twitter profiled on
	// both SKUs.
	var refs []*wpred.Workload
	for _, name := range []string{"TPC-C", "TPC-H", "Twitter"} {
		w, err := wpred.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		refs = append(refs, w)
	}
	refExps := wpred.GenerateSuite(refs, []wpred.SKU{s1, s2}, []int{8}, 3, src)

	pipeline, err := wpred.TrainPipeline(wpred.PipelineConfig{
		Strategy: wpred.SVM,      // pairwise SVM: the paper's recommendation
		Context:  wpred.Pairwise, // §6.3: model transitions, not the whole curve
		Seed:     7,
	}, refExps)
	if err != nil {
		log.Fatal(err)
	}

	// The customer's workload, measured on S1 only.
	ycsb, err := wpred.WorkloadByName("YCSB")
	if err != nil {
		log.Fatal(err)
	}
	measured := wpred.GenerateSuite([]*wpred.Workload{ycsb}, []wpred.SKU{s1}, []int{8}, 3, src)

	pred, _, err := pipeline.PredictWithReport(measured, s2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== migration check: S1 (4 CPU / 32 GB) → S2 (8 CPU / 64 GB) ===")
	fmt.Printf("nearest reference:  %s\n", pred.NearestReference)
	for _, d := range pred.Distances {
		fmt.Printf("  distance to %-8s %.3f\n", d.Workload, d.Distance)
	}
	fmt.Printf("observed  @S1: %8.1f req/s\n", pred.ObservedThroughput)
	fmt.Printf("predicted @S2: %8.1f req/s  (95%% interval %.0f – %.0f)\n",
		pred.PredictedThroughput, pred.PredictedLo, pred.PredictedHi)

	actual := wpred.GenerateSuite([]*wpred.Workload{ycsb}, []wpred.SKU{s2}, []int{8}, 3, src)
	mean := 0.0
	for _, e := range actual {
		mean += e.Throughput
	}
	mean /= float64(len(actual))
	errPct := 100 * abs(pred.PredictedThroughput-mean) / mean
	fmt.Printf("actual    @S2: %8.1f req/s  (error %.1f%%)\n", mean, errPct)

	// The SLA decision: migrate only if the *lower bound* of the
	// prediction interval clears the requirement.
	const slaReqPerSec = 700
	fmt.Printf("\nSLA requires ≥ %d req/s on S2: ", slaReqPerSec)
	switch {
	case pred.PredictedLo >= slaReqPerSec:
		fmt.Println("PASS — even the pessimistic bound clears the SLA, migration recommended")
	case pred.PredictedThroughput >= slaReqPerSec:
		fmt.Println("MARGINAL — the point estimate clears the SLA but the lower bound does not; migrate with monitoring")
	default:
		fmt.Println("FAIL — keep the current SKU or choose a larger one")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
