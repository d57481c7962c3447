// Roofline clamping: the Appendix-B extension. A CPU-bound point-lookup
// workload (Twitter) saturates once it stops being terminal-bound; any
// model that extrapolates its scaling linearly overshoots past that knee.
// This example predicts Twitter's throughput on a 16-CPU SKU from
// measurements on 2 CPUs, with and without the roofline clamp, and prints
// the reference workload's fitted ceiling.
//
//	go run ./examples/rooflineclamp
package main

import (
	"fmt"
	"log"

	"wpred"
	"wpred/internal/roofline"
	"wpred/internal/scalemodel"
)

func main() {
	src := wpred.NewSource(7)
	skus := []wpred.SKU{
		{CPUs: 2, MemoryGB: 16},
		{CPUs: 4, MemoryGB: 32},
		{CPUs: 8, MemoryGB: 64},
		{CPUs: 16, MemoryGB: 128},
	}
	twitter, err := wpred.WorkloadByName("Twitter")
	if err != nil {
		log.Fatal(err)
	}
	// Profile only up to 8 CPUs: predicting at 16 is a true
	// extrapolation past the workload's knee.
	refs := wpred.GenerateSuite([]*wpred.Workload{twitter}, skus[:3], []int{8}, 3, src)

	// Fit the reference roofline directly for inspection.
	ds := scalemodel.Build(twitter, scalemodel.BuildConfig{SKUs: skus[:3], Terminals: 8}, wpred.NewSource(8))
	var cpus, tput []float64
	for si, sku := range ds.SKUs {
		mean := 0.0
		for _, v := range ds.Obs[si] {
			mean += v
		}
		cpus = append(cpus, float64(sku.CPUs))
		tput = append(tput, mean/float64(len(ds.Obs[si])))
	}
	roof, err := roofline.FitCeilings(cpus, tput, 1.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference roofline: %.0f req/s per CPU, ceiling %.0f req/s, knee ≈ %.1f CPUs\n\n",
		roof.SlopePerCPU, roof.Ceiling, roof.Knee())

	predict := func(clamp bool) float64 {
		p, err := wpred.TrainPipeline(wpred.PipelineConfig{
			Seed:          7,
			Strategy:      wpred.Regression, // linear: extrapolates past the knee
			Context:       wpred.Single,
			RooflineClamp: clamp,
		}, refs)
		if err != nil {
			log.Fatal(err)
		}
		tw2, _ := wpred.WorkloadByName("Twitter")
		target := wpred.GenerateSuite([]*wpred.Workload{tw2}, []wpred.SKU{skus[0]}, []int{8}, 1, src)
		pred, _, err := p.PredictWithReport(target, skus[3])
		if err != nil {
			log.Fatal(err)
		}
		return pred.PredictedThroughput
	}

	plain := predict(false)
	clamped := predict(true)
	tw3, _ := wpred.WorkloadByName("Twitter")
	actual := wpred.GenerateSuite([]*wpred.Workload{tw3}, []wpred.SKU{skus[3]}, []int{8}, 1, src)[0].Throughput

	fmt.Printf("predicted @16 CPUs, single-context model: %8.0f req/s\n", plain)
	fmt.Printf("predicted @16 CPUs, roofline-clamped:     %8.0f req/s\n", clamped)
	fmt.Printf("actual    @16 CPUs:                       %8.0f req/s\n", actual)
}
