// Package wpred is an end-to-end machine-learning pipeline for database
// workload resource prediction, reproducing the EDBT 2025 study "From
// Feature Selection to Resource Prediction: An Analysis of Commonly
// Applied Workflows and Techniques".
//
// The pipeline has three stages (Figure 2 of the paper):
//
//  1. Feature selection over workload telemetry (29 resource-utilization
//     and query-plan features, 16 selection strategies).
//  2. Workload similarity computation (MTS / Hist-FP / Phase-FP data
//     representations × matrix norms, DTW, LCSS).
//  3. Resource scaling prediction (single vs. pairwise SKU models over six
//     regression strategies).
//
// The package also ships the full substrate the study ran on, rebuilt as a
// simulator: the six benchmark workloads (TPC-C, TPC-H, TPC-DS, Twitter,
// YCSB, and a synthetic production workload), a cost-model-driven plan
// statistics generator, and a concurrency-aware execution model.
//
// # Quick start
//
//	src := wpred.NewSource(42)
//	refs := wpred.GenerateSuite(wpred.ReferenceWorkloads(), wpred.DefaultSKUs(), []int{8}, 3, src)
//	p, err := wpred.TrainPipeline(wpred.PipelineConfig{Seed: 42}, refs)
//	if err != nil { ... }
//	pred, dropped, err := p.PredictWithReport(targetExperiments, wpred.SKU{CPUs: 8, MemoryGB: 64})
//
// See examples/ for complete programs and DESIGN.md for the experiment
// index.
package wpred

import (
	"wpred/internal/bench"
	"wpred/internal/core"
	"wpred/internal/distance"
	"wpred/internal/featsel"
	"wpred/internal/fingerprint"
	"wpred/internal/scalemodel"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// Re-exported core types. The aliases give library users access to the
// full internal APIs through a single import.
type (
	// SKU is a hardware configuration (CPU count, memory).
	SKU = telemetry.SKU
	// Feature identifies one of the 29 telemetry features of Table 2.
	Feature = telemetry.Feature
	// Experiment is one workload execution's telemetry.
	Experiment = telemetry.Experiment
	// Source is the splittable deterministic randomness source.
	Source = telemetry.Source
	// Workload is a benchmark definition for the simulated engine.
	Workload = simdb.Workload
	// SimConfig parameterizes one simulated run.
	SimConfig = simdb.Config

	// Pipeline is the trained end-to-end predictor.
	Pipeline = core.Pipeline
	// PipelineConfig selects the pipeline's algorithms; the zero value is
	// the paper's recommended configuration.
	PipelineConfig = core.Config
	// Prediction is an end-to-end prediction result.
	Prediction = core.Prediction
	// WorkloadDistance is one entry of Prediction.Distances: a reference
	// workload and its mean normalized distance to the target.
	WorkloadDistance = core.WorkloadDistance
	// DroppedExperiment records an input the pipeline rejected during
	// sanitization, with the corruption report explaining why.
	DroppedExperiment = core.DroppedExperiment
	// InsufficientReferencesError reports TrainPipeline failing because
	// sanitization left fewer usable references than
	// PipelineConfig.MinValidRefs.
	InsufficientReferencesError = core.InsufficientReferencesError

	// SanitizePolicy tunes telemetry validation thresholds; the zero value
	// applies the defaults.
	SanitizePolicy = telemetry.SanitizePolicy
	// CorruptionReport itemizes the defects found (and repaired) in one
	// experiment's telemetry.
	CorruptionReport = telemetry.CorruptionReport

	// SelectionStrategy is a feature-selection strategy (Table 3).
	SelectionStrategy = featsel.Strategy
	// SelectionResult is a strategy's scored/ranked output.
	SelectionResult = featsel.Result
	// Representation is a similarity data representation (§5.1.1).
	Representation = fingerprint.Representation
	// Metric is a similarity distance measure (§5.1.2).
	Metric = distance.Metric
	// ScalingStrategy is a resource-prediction model family (§6.1.2).
	ScalingStrategy = scalemodel.Strategy
	// ScalingContext is single vs. pairwise modeling (§6.1.1).
	ScalingContext = scalemodel.Context
	// ScalingDataset holds matched throughput observations across SKUs.
	ScalingDataset = scalemodel.Dataset
)

// Representation values.
const (
	HistFP  = fingerprint.HistFP
	MTS     = fingerprint.MTS
	PhaseFP = fingerprint.PhaseFP
)

// Scaling strategy and context values.
const (
	SVM        = scalemodel.SVM
	Regression = scalemodel.Regression
	LMM        = scalemodel.LMM
	GB         = scalemodel.GB
	MARS       = scalemodel.MARS
	NNet       = scalemodel.NNet

	Pairwise = scalemodel.Pairwise
	Single   = scalemodel.Single
)

// Pipeline sentinel errors, for errors.Is tests against TrainPipeline and
// PredictWithReport failures.
var (
	ErrNotTrained         = core.ErrNotTrained
	ErrNoReferences       = core.ErrNoReferences
	ErrNoTargets          = core.ErrNoTargets
	ErrMixedSKUs          = core.ErrMixedSKUs
	ErrTooFewReferences   = core.ErrTooFewReferences
	ErrNoUsableTargets    = core.ErrNoUsableTargets
	ErrNoScalingReference = core.ErrNoScalingReference
)

// Sanitize returns a repaired copy of one experiment's telemetry (short
// gaps imputed, non-finite cells dropped, duplicated ticks removed,
// flatlines excised) plus a report of what it found; Usable() on the
// report says whether the experiment should still be trusted.
func Sanitize(e *Experiment, p SanitizePolicy) (*Experiment, *CorruptionReport) {
	return telemetry.Sanitize(e, p)
}

// Validate is Sanitize without mutation: it reports an experiment's
// defects, leaving the telemetry untouched.
func Validate(e *Experiment, p SanitizePolicy) *CorruptionReport { return telemetry.Validate(e, p) }

// TrainPipeline sanitizes the reference experiments, runs feature selection
// over the usable ones, and returns the trained pipeline. A trained
// pipeline never changes: Dropped reports the references sanitization
// rejected, and PredictWithReport returns each call's rejected targets.
func TrainPipeline(cfg PipelineConfig, refs []*Experiment) (*Pipeline, error) {
	return core.TrainPipeline(cfg, refs)
}

// NewSource returns a deterministic randomness source rooted at seed.
func NewSource(seed uint64) *Source { return telemetry.NewSource(seed) }

// DefaultSKUs returns the study's four hardware configurations
// (2/4/8/16 CPUs).
func DefaultSKUs() []SKU { return telemetry.DefaultSKUs() }

// WorkloadByName constructs a benchmark workload ("TPC-C", "TPC-H",
// "TPC-DS", "Twitter", "YCSB", "PW").
func WorkloadByName(name string) (*Workload, error) { return bench.ByName(name) }

// WorkloadNames lists the available benchmark workloads.
func WorkloadNames() []string { return bench.Names() }

// ReferenceWorkloads returns the five standardized benchmarks used as the
// pipeline's reference set.
func ReferenceWorkloads() []*Workload { return bench.Standard() }

// Simulate executes one workload run on the simulated engine and returns
// its telemetry.
func Simulate(w *Workload, cfg SimConfig, src *Source) *Experiment {
	return simdb.Simulate(w, cfg, src)
}

// GenerateSuite simulates every workload × SKU × terminal × run
// combination (serial workloads run with one terminal).
func GenerateSuite(workloads []*Workload, skus []SKU, terminals []int, runs int, src *Source) []*Experiment {
	return bench.GenerateSuite(workloads, skus, terminals, runs, src)
}

// SelectionStrategies returns all 16 feature-selection strategies of
// Table 3 plus the random baseline.
func SelectionStrategies(seed uint64) []SelectionStrategy { return featsel.AllStrategies(seed) }

// Norms returns the six matrix-norm similarity measures.
func Norms() []Metric { return distance.Norms() }

// TimeSeriesMetrics returns the DTW and LCSS measures.
func TimeSeriesMetrics() []Metric { return distance.TimeSeriesMetrics() }
