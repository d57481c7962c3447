package experiments

import (
	"fmt"

	"wpred/internal/bench"
	"wpred/internal/core"
	"wpred/internal/scalemodel"
	"wpred/internal/stat"
	"wpred/internal/telemetry"
)

// Figure10Result is the similarity ranking of YCSB against the reference
// workloads.
type Figure10Result struct {
	// Distances ranks the references by ascending mean distance.
	Distances []core.WorkloadDistance
	Nearest   string
}

// Figure10 computes the Hist-FP + L2,1 similarity of YCSB to TPC-C,
// Twitter, TPC-H, and TPC-DS on the 2-CPU SKU (the known hardware of the
// end-to-end scenario) using the pipeline's selected top-7 features.
func (s *Suite) Figure10() (*Figure10Result, error) {
	refs := []string{bench.TPCCName, bench.TwitterName, bench.TPCHName, bench.TPCDSName}
	refExps, err := s.Experiments(refs, []telemetry.SKU{SKU2}, []int{8}, 3)
	if err != nil {
		return nil, err
	}
	target, err := s.Experiments([]string{bench.YCSBName}, []telemetry.SKU{SKU2}, []int{8}, 3)
	if err != nil {
		return nil, err
	}

	p, err := core.TrainPipeline(core.Config{Seed: s.Seed, Subsamples: s.Subsamples()}, refExps)
	if err != nil {
		return nil, err
	}
	// Predict to the same SKU: we only need the similarity side effects.
	pred, _, err := p.PredictWithReport(target, SKU2)
	if err != nil {
		return nil, err
	}
	return &Figure10Result{Distances: pred.Distances, Nearest: pred.NearestReference}, nil
}

// Table renders Figure 10.
func (r *Figure10Result) Table() *Table {
	t := &Table{
		Title:  "Figure 10: Hist-FP L2,1 similarity of YCSB to reference workloads",
		Header: []string{"Reference", "Mean distance", "Nearest?"},
	}
	for _, d := range r.Distances {
		mark := ""
		if d.Workload == r.Nearest {
			mark = "← nearest"
		}
		t.AddRow(d.Workload, f3(d.Distance), mark)
	}
	return t
}

// Figure11Result is the end-to-end prediction experiment of §6.2.3.
type Figure11Result struct {
	// Part 1: YCSB scaling 2 → 8 CPUs via the nearest reference's
	// pairwise SVM model.
	Nearest       string
	PerRunPred    []float64 // one prediction per target run
	ActualMean    float64
	ActualRange   float64
	NRMSE         float64
	ScalingFactor float64

	// Part 2: multi-dimensional SKUs S1 (4 CPU / 32 GB) → S2
	// (8 CPU / 64 GB): MAPE using the pipeline's pick (TPC-C) vs forcing
	// Twitter as the reference.
	S2Actual      float64
	S2PredNearest float64
	MAPENearest   float64
	S2PredTwitter float64
	MAPETwitter   float64
	NearestS1     string
}

// Figure11 runs the full pipeline twice: first predicting YCSB throughput
// when scaling from 2 to 8 CPUs (references TPC-C, Twitter, TPC-H), then
// the multi-dimensional S1→S2 variant where memory scales with the CPUs.
func (s *Suite) Figure11() (*Figure11Result, error) {
	res := &Figure11Result{}
	refs := []string{bench.TPCCName, bench.TwitterName, bench.TPCHName}
	sku2 := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	sku8 := telemetry.SKU{CPUs: 8, MemoryGB: 64}

	// Part 1: scale YCSB 2 → 8 CPUs.
	refExps, err := s.Experiments(refs, []telemetry.SKU{sku2, sku8}, []int{8}, 3)
	if err != nil {
		return nil, err
	}
	target2, err := s.Experiments([]string{bench.YCSBName}, []telemetry.SKU{sku2}, []int{8}, 3)
	if err != nil {
		return nil, err
	}
	actual8, err := s.Experiments([]string{bench.YCSBName}, []telemetry.SKU{sku8}, []int{8}, 3)
	if err != nil {
		return nil, err
	}

	p, err := core.TrainPipeline(core.Config{Seed: s.Seed, Subsamples: s.Subsamples()}, refExps)
	if err != nil {
		return nil, err
	}
	var preds, actuals []float64
	for _, e := range target2 {
		pr, _, err := p.PredictWithReport([]*telemetry.Experiment{e}, sku8)
		if err != nil {
			return nil, err
		}
		res.Nearest = pr.NearestReference
		res.ScalingFactor = pr.ScalingFactor
		preds = append(preds, pr.PredictedThroughput)
	}
	res.PerRunPred = preds
	for _, e := range actual8 {
		actuals = append(actuals, scalemodel.Downsample(e.ThroughputSeries, s.Subsamples(),
			s.src.Child(fmt.Sprintf("fig11/actual/%d", e.Run)))...)
	}
	res.ActualMean = stat.Mean(actuals)
	res.ActualRange = scalemodel.ValueRange(actuals)
	var pv, av []float64
	for _, pr := range preds {
		pv = append(pv, pr)
		av = append(av, res.ActualMean)
	}
	res.NRMSE = scalemodel.NRMSE(pv, av, res.ActualRange)

	// Part 2: S1 (4 CPU / 32 GB) → S2 (8 CPU / 64 GB).
	s1 := telemetry.SKU{CPUs: 4, MemoryGB: 32}
	s2 := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	refExpsB, err := s.Experiments(refs, []telemetry.SKU{s1, s2}, []int{8}, 3)
	if err != nil {
		return nil, err
	}
	targetS1, err := s.Experiments([]string{bench.YCSBName}, []telemetry.SKU{s1}, []int{8}, 3)
	if err != nil {
		return nil, err
	}
	actualS2, err := s.Experiments([]string{bench.YCSBName}, []telemetry.SKU{s2}, []int{8}, 3)
	if err != nil {
		return nil, err
	}

	pb, err := core.TrainPipeline(core.Config{Seed: s.Seed, Subsamples: s.Subsamples()}, refExpsB)
	if err != nil {
		return nil, err
	}
	prB, _, err := pb.PredictWithReport(targetS1, s2)
	if err != nil {
		return nil, err
	}
	res.NearestS1 = prB.NearestReference
	res.S2PredNearest = prB.PredictedThroughput
	var s2obs []float64
	for _, e := range actualS2 {
		s2obs = append(s2obs, e.Throughput)
	}
	res.S2Actual = stat.Mean(s2obs)
	res.MAPENearest = scalemodel.APE(res.S2PredNearest, res.S2Actual)

	// Force Twitter as the reference for the contrast.
	twPred, err := forcedReferencePrediction(s, refExpsB, targetS1, bench.TwitterName, s1, s2)
	if err != nil {
		return nil, err
	}
	res.S2PredTwitter = twPred
	res.MAPETwitter = scalemodel.APE(twPred, res.S2Actual)
	return res, nil
}

// forcedReferencePrediction applies the pairwise SVM scaling model of a
// specific reference workload (instead of the nearest) to the target's
// observed throughput.
func forcedReferencePrediction(s *Suite, refExps, target []*telemetry.Experiment, refName string, from, to telemetry.SKU) (float64, error) {
	var setting []*telemetry.Experiment
	for _, e := range refExps {
		if e.Workload == refName && (e.SKU == from || e.SKU == to) {
			setting = append(setting, e)
		}
	}
	ds, err := scalemodel.FromExperiments(setting, s.Subsamples(), s.src.Child("forced/"+refName))
	if err != nil {
		return 0, err
	}
	fromIdx, err := ds.SKUIndex(from.CPUs)
	if err != nil {
		return 0, err
	}
	toIdx, err := ds.SKUIndex(to.CPUs)
	if err != nil {
		return 0, err
	}
	m, err := scalemodel.FitPair(scalemodel.SVM, ds, fromIdx, toIdx, nil, s.Seed)
	if err != nil {
		return 0, err
	}
	obs := 0.0
	for _, e := range target {
		obs += e.Throughput
	}
	obs /= float64(len(target))
	refMean := stat.Mean(ds.Obs[fromIdx])
	return obs * m.ScalingFactor(refMean), nil
}

// Table renders Figure 11 and the §6.2.3 numbers.
func (r *Figure11Result) Table() *Table {
	t := &Table{
		Title:  "Figure 11 / §6.2.3: end-to-end YCSB throughput prediction",
		Header: []string{"Quantity", "Value"},
	}
	t.AddRow("Part 1 nearest reference (2 CPUs)", r.Nearest)
	t.AddRow("Part 1 scaling factor 2→8 CPUs", f3(r.ScalingFactor))
	for i, p := range r.PerRunPred {
		t.AddRow(fmt.Sprintf("Part 1 predicted throughput (run %d)", i), f1(p))
	}
	t.AddRow("Part 1 actual mean throughput @8 CPUs", f1(r.ActualMean))
	t.AddRow("Part 1 NRMSE", f4(r.NRMSE))
	t.AddRow("Part 2 nearest reference (S1)", r.NearestS1)
	t.AddRow("Part 2 predicted @S2 via nearest", f1(r.S2PredNearest))
	t.AddRow("Part 2 predicted @S2 via Twitter", f1(r.S2PredTwitter))
	t.AddRow("Part 2 actual @S2", f1(r.S2Actual))
	t.AddRow("Part 2 MAPE via nearest", f3(r.MAPENearest))
	t.AddRow("Part 2 MAPE via Twitter", f3(r.MAPETwitter))
	return t
}
