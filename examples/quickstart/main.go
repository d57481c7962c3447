// Quickstart: train the end-to-end pipeline on the standard benchmarks and
// predict a workload's throughput on a bigger SKU.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wpred"
)

func main() {
	src := wpred.NewSource(42)

	// 1. Profile the reference benchmarks on both hardware
	// configurations (three repeated runs each).
	small := wpred.SKU{CPUs: 2, MemoryGB: 16}
	large := wpred.SKU{CPUs: 8, MemoryGB: 64}
	var refs []*wpred.Workload
	for _, w := range wpred.ReferenceWorkloads() {
		if w.Name != "YCSB" { // YCSB plays the unknown customer workload
			refs = append(refs, w)
		}
	}
	refExps := wpred.GenerateSuite(refs, []wpred.SKU{small, large}, []int{8}, 3, src)

	// 2. Train the pipeline: feature selection over the reference
	// telemetry; the references also serve as the similarity knowledge
	// base and the source of scaling models.
	pipeline, err := wpred.TrainPipeline(wpred.PipelineConfig{Seed: 42}, refExps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("selected features:", pipeline.SelectedFeatures())

	// 3. Measure the customer workload on its current (small) SKU only.
	ycsb, err := wpred.WorkloadByName("YCSB")
	if err != nil {
		log.Fatal(err)
	}
	measured := wpred.GenerateSuite([]*wpred.Workload{ycsb}, []wpred.SKU{small}, []int{8}, 3, src)

	// 4. Predict its throughput on the large SKU.
	pred, _, err := pipeline.PredictWithReport(measured, large)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nearest reference workload: %s\n", pred.NearestReference)
	fmt.Printf("observed  @%v: %8.1f req/s\n", small, pred.ObservedThroughput)
	fmt.Printf("predicted @%v: %8.1f req/s (scaling factor %.2f)\n", large, pred.PredictedThroughput, pred.ScalingFactor)

	// 5. Compare against the simulator's ground truth.
	actual := wpred.GenerateSuite([]*wpred.Workload{ycsb}, []wpred.SKU{large}, []int{8}, 3, src)
	mean := 0.0
	for _, e := range actual {
		mean += e.Throughput
	}
	mean /= float64(len(actual))
	fmt.Printf("actual    @%v: %8.1f req/s\n", large, mean)
}
