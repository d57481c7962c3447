// Command wpredict runs the end-to-end pipeline on simulated telemetry: it
// profiles a target workload on its current hardware, matches it against
// the reference benchmarks, and predicts its throughput on a different
// SKU.
//
// Usage:
//
//	wpredict -workload YCSB -from 2 -to 8
//	wpredict -workload TPC-C -from 4 -to 16 -terminals 32 -seed 7
//	wpredict -telemetry target.json -to 8      # real telemetry from wlgen-format JSON
//
// The "reference distances" table is printed in ascending-distance order
// (ties broken by workload name), so two runs with the same flags produce
// byte-identical stdout.
//
// Observability: -debug-addr ADDR serves Prometheus metrics on
// /metrics and live pprof profiles under /debug/pprof/; -trace-out
// FILE dumps the pipeline stage spans as JSON on exit. Both write only to
// stderr, files, and HTTP — stdout is identical with or without them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wpred"
	"wpred/internal/obs"
	"wpred/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and exit code, so the determinism
// tests can execute the full output path twice and compare bytes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wpredict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "YCSB", "target workload to simulate (see -listworkloads)")
		telFile   = fs.String("telemetry", "", "load target experiments from a JSON stream (wlgen/library format) instead of simulating")
		fromCPUs  = fs.Int("from", 2, "current SKU CPU count (ignored with -telemetry)")
		toCPUs    = fs.Int("to", 8, "target SKU CPU count")
		terminals = fs.Int("terminals", 8, "concurrent terminals")
		seed      = fs.Uint64("seed", 42, "randomness seed")
		listWL    = fs.Bool("listworkloads", false, "list workload names and exit")
		debugAddr = fs.String("debug-addr", "", "serve Prometheus metrics (/metrics) and pprof profiles (/debug/pprof/) on this address, e.g. localhost:6060")
		traceOut  = fs.String("trace-out", "", "write pipeline stage-tracing spans as JSON to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listWL {
		for _, n := range wpred.WorkloadNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	if *debugAddr != "" {
		srv, err := obs.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintln(stderr, "wpredict:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "wpredict: debug endpoint on http://%s (metrics: /metrics, pprof: /debug/pprof/)\n", srv.Addr)
	}
	if *traceOut != "" {
		obs.SetTracing(true)
		obs.ResetTrace()
		defer func() {
			if err := obs.WriteTraceFile(*traceOut); err != nil {
				fmt.Fprintln(stderr, "wpredict: trace-out:", err)
			}
		}()
	}

	src := wpred.NewSource(*seed)

	// Target experiments: either externally collected telemetry or a
	// simulated run of the named benchmark.
	var targetExps []*wpred.Experiment
	var targetName string
	if *telFile != "" {
		f, err := os.Open(*telFile)
		if err != nil {
			fmt.Fprintln(stderr, "wpredict:", err)
			return 2
		}
		targetExps, err = telemetry.ReadExperiments(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "wpredict:", err)
			return 1
		}
		if len(targetExps) == 0 {
			fmt.Fprintln(stderr, "wpredict: no experiments in", *telFile)
			return 1
		}
		targetName = targetExps[0].Workload
	} else {
		targetName = *workload
	}

	var fromSKU wpred.SKU
	if len(targetExps) > 0 {
		fromSKU = targetExps[0].SKU
	} else {
		fromSKU = wpred.SKU{CPUs: *fromCPUs, MemoryGB: 8 * *fromCPUs}
	}
	toSKU := wpred.SKU{CPUs: *toCPUs, MemoryGB: 8 * *toCPUs}

	// Reference knowledge base: every standard benchmark except the
	// target itself, profiled on both SKUs.
	var refs []*wpred.Workload
	for _, w := range wpred.ReferenceWorkloads() {
		if w.Name != targetName {
			refs = append(refs, w)
		}
	}
	refExps := wpred.GenerateSuite(refs, []wpred.SKU{fromSKU, toSKU}, []int{*terminals}, 3, src)

	if targetExps == nil {
		target, err := wpred.WorkloadByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "wpredict:", err)
			return 2
		}
		targetExps = wpred.GenerateSuite([]*wpred.Workload{target}, []wpred.SKU{fromSKU}, []int{*terminals}, 3, src)
	}

	// Each sanitization rejection is warned about once: the references
	// training dropped, then the targets the prediction dropped.
	warnDropped := func(dropped []wpred.DroppedExperiment) {
		for _, d := range dropped {
			fmt.Fprintf(stderr, "wpredict: warning: dropped %s (%s, %s): %s\n",
				d.ID, d.Workload, d.Stage, d.Report)
		}
	}

	p, err := wpred.TrainPipeline(wpred.PipelineConfig{Seed: *seed}, refExps)
	if err != nil {
		fmt.Fprintln(stderr, "wpredict: train:", err)
		return 1
	}
	warnDropped(p.Dropped())
	pred, dropped, err := p.PredictWithReport(targetExps, toSKU)
	warnDropped(dropped)
	if err != nil {
		fmt.Fprintln(stderr, "wpredict: predict:", err)
		return 1
	}

	fmt.Fprintf(stdout, "target workload:      %s (%d experiments)\n", targetName, len(targetExps))
	fmt.Fprintf(stdout, "selected features:    %v\n", pred.SelectedFeatures)
	fmt.Fprintf(stdout, "nearest reference:    %s\n", pred.NearestReference)
	printDistances(stdout, pred.Distances)
	fmt.Fprintf(stdout, "observed on %-9s %.1f req/s\n", fromSKU.String()+":", pred.ObservedThroughput)
	fmt.Fprintf(stdout, "predicted on %-8s %.1f req/s (factor %.2f)\n", toSKU.String()+":", pred.PredictedThroughput, pred.ScalingFactor)

	// Ground truth from the simulator, for comparison (simulated targets
	// only: real telemetry has no oracle).
	if *telFile == "" {
		target, err := wpred.WorkloadByName(targetName)
		if err != nil {
			return 0
		}
		actual := wpred.GenerateSuite([]*wpred.Workload{target}, []wpred.SKU{toSKU}, []int{*terminals}, 3, src)
		printComparison(stdout, stderr, toSKU, actual, pred.PredictedThroughput)
	}
	return 0
}

// printDistances prints the "reference distances" table in the order
// Prediction.Distances ranks it: ascending distance, ties broken by
// workload name.
func printDistances(stdout io.Writer, dists []wpred.WorkloadDistance) {
	fmt.Fprintln(stdout, "reference distances:")
	for _, d := range dists {
		fmt.Fprintf(stdout, "  %-10s %.3f\n", d.Workload, d.Distance)
	}
}

// printComparison prints the simulated ground-truth line. An empty
// ground-truth suite or a non-positive mean throughput would make the
// prediction-error ratio NaN or ±Inf, so those cases skip the line with a
// stderr warning instead.
func printComparison(stdout, stderr io.Writer, toSKU wpred.SKU, actual []*wpred.Experiment, predicted float64) {
	if len(actual) == 0 {
		fmt.Fprintln(stderr, "wpredict: warning: ground-truth simulation produced no experiments; skipping comparison")
		return
	}
	mean := 0.0
	for _, e := range actual {
		mean += e.Throughput
	}
	mean /= float64(len(actual))
	if mean <= 0 {
		fmt.Fprintf(stderr, "wpredict: warning: ground-truth mean throughput is %.1f req/s; skipping comparison\n", mean)
		return
	}
	fmt.Fprintf(stdout, "actual on %-11s %.1f req/s (prediction error %.1f%%)\n",
		toSKU.String()+":", mean, 100*abs(predicted-mean)/mean)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
