package experiments

import (
	"errors"
	"fmt"

	"wpred/internal/bench"
	"wpred/internal/core"
	"wpred/internal/faults"
	"wpred/internal/scalemodel"
	"wpred/internal/stat"
	"wpred/internal/telemetry"
)

// RobustnessRates are the swept fault rates: clean, and 1–25% corruption.
var RobustnessRates = []float64{0, 0.01, 0.05, 0.10, 0.25}

// FaultSweepCell is one (fault model, rate) outcome of the degradation
// sweep.
type FaultSweepCell struct {
	// Rate is the injected fault rate.
	Rate float64
	// APE is the prediction's absolute percentage error against the
	// clean actual throughput (valid only when Err is empty).
	APE float64
	// DroppedRefs and DroppedTargets count experiments the pipeline
	// rejected during sanitization at each stage.
	DroppedRefs, DroppedTargets int
	// Err is non-empty when the pipeline could not produce a prediction.
	Err string
}

// FaultSweepRow is one fault model's degradation curve.
type FaultSweepRow struct {
	// Model is the fault model's name, or "all" for every model combined.
	Model string
	// Cells holds one outcome per entry of RobustnessRates.
	Cells []FaultSweepCell
}

// FaultSweepResult is the graceful-degradation experiment: the recommended
// pipeline configuration run end to end on deterministically corrupted
// telemetry, swept across fault models and rates.
type FaultSweepResult struct {
	// Target is the predicted workload.
	Target string
	// References are the reference workloads.
	References []string
	// Actual is the clean mean throughput at the destination SKU.
	Actual float64
	// CleanAPE is the rate-0 baseline error every row shares.
	CleanAPE float64
	// Rows holds one degradation curve per fault model plus "all".
	Rows []FaultSweepRow
}

// Robustness sweeps the end-to-end pipeline (RFE-LogReg top-7, Hist-FP,
// L2,1, pairwise SVM) over injected telemetry faults: for every fault
// model and every rate in RobustnessRates, both the reference and target
// experiments are corrupted with the suite's seed, then trained and
// predicted 2→8 CPUs. The target defaults to YCSB and follows
// Suite.RobustnessTarget; a target that collides with a reference swaps
// that reference for TPC-DS.
func (s *Suite) Robustness() (*FaultSweepResult, error) {
	target := s.RobustnessTarget
	if target == "" {
		target = bench.YCSBName
	}
	refs := []string{bench.TPCCName, bench.TwitterName, bench.TPCHName}
	for i, r := range refs {
		if r == target {
			refs[i] = bench.TPCDSName
		}
	}
	sku2 := telemetry.SKU{CPUs: 2, MemoryGB: 16}
	sku8 := telemetry.SKU{CPUs: 8, MemoryGB: 64}
	terms := []int{8}
	refExps, err := s.Experiments(refs, []telemetry.SKU{sku2, sku8}, terms, 3)
	if err != nil {
		return nil, err
	}
	targetExps, err := s.Experiments([]string{target}, []telemetry.SKU{sku2}, terms, 3)
	if err != nil {
		return nil, err
	}
	actualExps, err := s.Experiments([]string{target}, []telemetry.SKU{sku8}, terms, 3)
	if err != nil {
		return nil, err
	}

	var obs []float64
	for _, e := range actualExps {
		obs = append(obs, e.Throughput)
	}
	res := &FaultSweepResult{Target: target, References: refs, Actual: stat.Mean(obs)}

	run := func(models []faults.Model, rate float64) FaultSweepCell {
		cell := FaultSweepCell{Rate: rate}
		in := &faults.Injector{Seed: s.Seed, Rate: rate, Models: models}
		p, err := core.TrainPipeline(core.Config{Seed: s.Seed, Subsamples: s.Subsamples()}, in.Corrupt(refExps))
		if err != nil {
			cell.Err = shortErr(err)
			var ire *core.InsufficientReferencesError
			if errors.As(err, &ire) {
				cell.DroppedRefs = len(ire.Dropped)
			}
			return cell
		}
		// The prediction's rejected targets come back with its error too,
		// so a failed cell still counts them.
		pred, droppedTargets, err := p.PredictWithReport(in.Corrupt(targetExps), sku8)
		cell.DroppedRefs = len(p.Dropped())
		cell.DroppedTargets = len(droppedTargets)
		if err != nil {
			cell.Err = shortErr(err)
			return cell
		}
		cell.APE = scalemodel.APE(pred.PredictedThroughput, res.Actual)
		return cell
	}

	// The rate-0 cell is identical for every model (injection is a no-op),
	// so compute the clean baseline once and share it across rows.
	clean := run(nil, 0)
	if clean.Err != "" {
		return nil, fmt.Errorf("experiments: robustness baseline failed: %s", clean.Err)
	}
	res.CleanAPE = clean.APE

	rows := make([]FaultSweepRow, 0, len(faults.AllModels())+1)
	for _, m := range faults.AllModels() {
		rows = append(rows, FaultSweepRow{Model: m.Name(), Cells: []FaultSweepCell{clean}})
	}
	rows = append(rows, FaultSweepRow{Model: "all", Cells: []FaultSweepCell{clean}})
	for i := range rows {
		var models []faults.Model
		if rows[i].Model != "all" {
			models = []faults.Model{faults.AllModels()[i]}
		}
		for _, rate := range RobustnessRates[1:] {
			rows[i].Cells = append(rows[i].Cells, run(models, rate))
		}
	}
	res.Rows = rows
	return res, nil
}

// shortErr maps pipeline failures to compact table labels.
func shortErr(err error) string {
	switch {
	case errors.Is(err, core.ErrTooFewReferences):
		return "too few refs"
	case errors.Is(err, core.ErrNoUsableTargets):
		return "no usable targets"
	case errors.Is(err, core.ErrNoScalingReference):
		return "no scaling ref"
	default:
		return err.Error()
	}
}

// Table renders the degradation sweep: one row per fault model, one column
// per rate, each cell holding the APE (and the dropped-experiment count
// when sanitization rejected inputs).
func (r *FaultSweepResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Robustness: %s 2→8 CPUs under injected faults (APE vs clean actual %.1f)",
			r.Target, r.Actual),
		Header: []string{"Fault model"},
	}
	for _, rate := range RobustnessRates {
		t.Header = append(t.Header, fmt.Sprintf("%.0f%%", 100*rate))
	}
	for _, row := range r.Rows {
		cells := []string{row.Model}
		for _, c := range row.Cells {
			cells = append(cells, c.String())
		}
		t.AddRow(cells...)
	}
	return t
}

// String renders one cell: "0.034", with "d=N" appended when N experiments
// were dropped, or "fail: reason" when no prediction was produced.
func (c FaultSweepCell) String() string {
	if c.Err != "" {
		return "fail: " + c.Err
	}
	s := f3(c.APE)
	if n := c.DroppedRefs + c.DroppedTargets; n > 0 {
		s += fmt.Sprintf(" d=%d", n)
	}
	return s
}
