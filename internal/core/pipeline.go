// Package core wires the three components into the end-to-end workload
// resource-prediction pipeline of the paper (Figure 2): feature selection
// over the reference telemetry, similarity computation between the target
// workload and the references, and SKU-to-SKU scaling prediction using the
// nearest reference's pairwise scaling model (§6.2.3).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"wpred/internal/ann"
	"wpred/internal/distance"
	"wpred/internal/featsel"
	"wpred/internal/fingerprint"
	"wpred/internal/obs"
	"wpred/internal/parallel"
	"wpred/internal/scalemodel"
	"wpred/internal/simeval"
	"wpred/internal/telemetry"
)

// Pipeline telemetry (see "Observability" in DESIGN.md): per-stage
// wall-clock histograms for Train (sanitize, featsel) and Predict
// (sanitize, similarity, scalemodel), dropped-experiment counters fed by
// the fault layer's sanitization rejections, and run counters by outcome.
// The matching tracing spans are pipeline.train / pipeline.predict with
// one child span per stage.
func stageSeconds(op, stage string) *obs.Histogram {
	return obs.GetHistogram("wpred_pipeline_stage_duration_seconds",
		"Wall-clock duration of pipeline stages, by operation and stage.",
		obs.DefBuckets, obs.Labels{"op": op, "stage": stage})
}

func runCounter(op, status string) *obs.Counter {
	return obs.GetCounter("wpred_pipeline_runs_total",
		"Pipeline Train/Predict calls, by operation and outcome.",
		obs.Labels{"op": op, "status": status})
}

var (
	trainSanitizeSeconds   = stageSeconds("train", "sanitize")
	trainFeatselSeconds    = stageSeconds("train", "featsel")
	predictSanitizeSeconds = stageSeconds("predict", "sanitize")
	predictSimilarSeconds  = stageSeconds("predict", "similarity")
	predictScaleSeconds    = stageSeconds("predict", "scalemodel")

	droppedTrain = obs.GetCounter("wpred_pipeline_dropped_experiments_total",
		"Experiments rejected by sanitization, by pipeline stage.",
		obs.Labels{"stage": "train"})
	droppedPredict = obs.GetCounter("wpred_pipeline_dropped_experiments_total",
		"Experiments rejected by sanitization, by pipeline stage.",
		obs.Labels{"stage": "predict"})

	trainOK    = runCounter("train", "ok")
	trainErr   = runCounter("train", "error")
	predictOK  = runCounter("predict", "ok")
	predictErr = runCounter("predict", "error")
)

// Config selects the pipeline's algorithms; the zero value reproduces the
// paper's recommended configuration (RFE-LogReg top-7 features, Hist-FP
// with the L2,1 norm, pairwise SVM scaling models).
type Config struct {
	// Selection is the feature-selection strategy (default RFE LogReg).
	Selection featsel.Strategy
	// TopK features to keep (default 7).
	TopK int
	// Representation for similarity (default Hist-FP).
	Representation fingerprint.Representation
	// Metric for similarity (default L2,1).
	Metric distance.Metric
	// Strategy for scaling models (default SVM).
	Strategy scalemodel.Strategy
	// Context for scaling models (default Pairwise).
	Context scalemodel.Context
	// Subsamples per run for scaling datasets (default 10).
	Subsamples int
	// RooflineClamp caps predictions with a roofline fitted on the
	// nearest reference's observed scaling curve (Appendix B of the
	// paper): a linear or pairwise extrapolation can never exceed the
	// reference's saturation ceiling, scaled to the target's operating
	// point. Off by default, matching the paper's main experiments.
	RooflineClamp bool
	// Sanitize tunes the corruption detection applied to every reference
	// and target experiment (zero value = telemetry defaults). Clean
	// telemetry passes through value-identical, so sanitization never
	// perturbs results on pristine inputs.
	Sanitize telemetry.SanitizePolicy
	// MinValidRefs is the smallest number of usable reference experiments
	// Train accepts after sanitization (default 2).
	MinValidRefs int
	// IndexThreshold routes reference lookups through a VP-tree index
	// (simeval.BuildReferenceIndex) once the same-SKU reference set
	// reaches this many experiments, replacing the O(N²) pairwise matrix
	// with per-target k-NN lookups. Below the threshold the exhaustive
	// path runs unchanged, so small suites — including every committed
	// experiment — stay byte-identical. The indexed path differs
	// deliberately: the fingerprint builder is fitted on the references
	// only (Fit-once/Query-many; a library at this scale cannot be
	// re-normalized per query), and the ranking is computed over the
	// IndexK nearest references instead of all of them. 0 selects the
	// default (256); negative disables indexing entirely.
	IndexThreshold int
	// IndexK is the neighbor count per indexed lookup (default 32).
	IndexK int
	// IndexTau is the approximate-mode pruning slack for non-metric
	// distances such as DTW (see ann.Config.Tau); ignored by metric-space
	// distances, which the index answers exactly.
	IndexTau float64
	// Seed drives every randomized component.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Selection == nil {
		c.Selection = featsel.NewRFE(featsel.EstimatorLogReg)
	}
	if c.TopK == 0 {
		c.TopK = 7
	}
	if c.Metric == nil {
		c.Metric = distance.L21{}
	}
	if c.Subsamples == 0 {
		c.Subsamples = 10
	}
	if c.MinValidRefs == 0 {
		c.MinValidRefs = 2
	}
	if c.IndexThreshold == 0 {
		c.IndexThreshold = 256
	}
	if c.IndexK == 0 {
		c.IndexK = 32
	}
	// Representation, Strategy, and Context zero values already name the
	// paper's recommended defaults (Hist-FP, SVM, Pairwise).
	return c
}

// DroppedExperiment records one input experiment the pipeline rejected
// during sanitization, with the corruption accounting that justified it.
type DroppedExperiment struct {
	// ID is the experiment's identifier.
	ID string
	// Workload names the experiment's workload.
	Workload string
	// Stage is "train" or "predict".
	Stage string
	// Report details the corruption found.
	Report *telemetry.CorruptionReport
}

// Pipeline is the trained end-to-end predictor.
type Pipeline struct {
	cfg      Config
	refs     []*telemetry.Experiment
	selected []telemetry.Feature
	dropped  []DroppedExperiment
	classOf  map[string]string // workload → class name (for NDCG-style reporting)

	// indexes caches one fitted builder + reference index per
	// (SKU, plan-only) similarity context, built lazily on the first
	// Predict that crosses IndexThreshold and reused by every subsequent
	// lookup (Fit-once/Query-many). Guarded by idxMu; reset on Train.
	idxMu   sync.Mutex
	indexes map[string]*refIndex

	// memo caches the scaling stage per (nearest reference, from SKU, to
	// SKU): the fitted factor and interval, filled lazily and single-flight
	// by the first Predict that needs them (see stageFor). Guarded by
	// memoMu; reset on Train, never persisted.
	memoMu sync.Mutex
	memo   map[scaleKey]*memoEntry
}

// refIndex pairs a reference-fitted fingerprint builder with the VP-tree
// over the fingerprints it produced; queries must be encoded by the same
// builder to share the normalization ranges.
type refIndex struct {
	builder *fingerprint.Builder
	ri      *simeval.ReferenceIndex
}

// New returns an untrained pipeline with the given configuration.
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg.withDefaults()}
}

// TrainPipeline constructs and trains a pipeline in one step — the entry
// point for callers that hold a reference suite and want a ready predictor
// (the wpredd model registry fits every cache entry through it). The
// returned pipeline is safe for concurrent PredictWithReport calls.
func TrainPipeline(cfg Config, refs []*telemetry.Experiment) (*Pipeline, error) {
	p := New(cfg)
	if err := p.Train(refs); err != nil {
		return nil, err
	}
	return p, nil
}

// SelectedFeatures returns the features chosen during Train (nil before).
func (p *Pipeline) SelectedFeatures() []telemetry.Feature {
	return append([]telemetry.Feature(nil), p.selected...)
}

// Dropped returns every experiment rejected since the last Train — the
// degradation accounting for both training references and prediction
// targets. The slice resets on Train and grows on each Predict.
func (p *Pipeline) Dropped() []DroppedExperiment {
	return append([]DroppedExperiment(nil), p.dropped...)
}

// sanitize runs the corruption pass over a batch under policy, recording
// rejections under the given stage into dst, and returns the usable
// sanitized experiments. The collector is caller-owned so concurrent
// Predict calls never append to shared pipeline state.
func sanitize(exps []*telemetry.Experiment, policy telemetry.SanitizePolicy, stage string, dst *[]DroppedExperiment) []*telemetry.Experiment {
	kept := make([]*telemetry.Experiment, 0, len(exps))
	for _, e := range exps {
		s, rep := telemetry.Sanitize(e, policy)
		if !rep.Usable() {
			*dst = append(*dst, DroppedExperiment{
				ID: rep.ID, Workload: e.Workload, Stage: stage, Report: rep,
			})
			if stage == "train" {
				droppedTrain.Inc()
			} else {
				droppedPredict.Inc()
			}
			continue
		}
		kept = append(kept, s)
	}
	return kept
}

// Train sanitizes the reference experiments, drops unusable ones (see
// Dropped), runs feature selection over the survivors, and retains them as
// the similarity/scaling knowledge base. References should cover each
// workload on every SKU of interest with matching runs. Train fails with
// ErrTooFewReferences only when fewer than Config.MinValidRefs references
// survive sanitization.
func (p *Pipeline) Train(refs []*telemetry.Experiment) error {
	sp := obs.StartSpan("pipeline.train")
	sp.SetAttr("refs", strconv.Itoa(len(refs)))
	err := p.train(refs, sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
		trainErr.Inc()
	} else {
		sp.SetAttr("selected", strconv.Itoa(len(p.selected)))
		trainOK.Inc()
	}
	sp.End()
	return err
}

func (p *Pipeline) train(refs []*telemetry.Experiment, sp *obs.Span) error {
	if len(refs) == 0 {
		return ErrNoReferences
	}
	p.dropped = nil
	ssp := sp.Child("sanitize")
	kept := sanitize(refs, p.cfg.Sanitize, "train", &p.dropped)
	ssp.SetAttr("dropped", strconv.Itoa(len(p.dropped)))
	trainSanitizeSeconds.ObserveDuration(ssp.End())
	if len(kept) < p.cfg.MinValidRefs {
		return &InsufficientReferencesError{
			Usable: len(kept), Total: len(refs), Min: p.cfg.MinValidRefs,
			Dropped: p.Dropped(),
		}
	}
	p.refs = kept
	p.idxMu.Lock()
	p.indexes = nil // reference set changed; indexes rebuild lazily
	p.idxMu.Unlock()
	p.memoMu.Lock()
	p.memo = nil // likewise the scaling stages
	p.memoMu.Unlock()

	fsp := sp.Child("featsel")
	defer func() { trainFeatselSeconds.ObserveDuration(fsp.End()) }()
	// One sub-experiment row per systematic sample, labeled by workload.
	var subs []*telemetry.Experiment
	for _, e := range p.refs {
		subs = append(subs, e.SystematicSample(p.cfg.Subsamples)...)
	}
	ds := telemetry.BuildDataset(subs, nil)
	ds.MinMaxNormalize()
	res, err := p.cfg.Selection.Evaluate(ds.X, ds.Labels)
	if err != nil {
		return fmt.Errorf("core: feature selection: %w", err)
	}
	cols := res.TopK(p.cfg.TopK)
	p.selected = make([]telemetry.Feature, len(cols))
	for i, c := range cols {
		p.selected[i] = ds.Features[c]
	}
	return nil
}

// Prediction is the result of an end-to-end throughput prediction.
type Prediction struct {
	// NearestReference is the reference workload the target matched.
	NearestReference string
	// Distances holds the mean normalized distance to each reference
	// workload (smaller = more similar).
	Distances map[string]float64
	// FromSKU and ToSKU are the source and target hardware.
	FromSKU, ToSKU telemetry.SKU
	// ObservedThroughput is the target's mean measured throughput on
	// FromSKU.
	ObservedThroughput float64
	// PredictedThroughput is the modeled throughput on ToSKU.
	PredictedThroughput float64
	// PredictedLo and PredictedHi bound the prediction with an
	// approximate 95% interval derived from the dispersion of the
	// reference workload's per-run scaling factors. They equal
	// PredictedThroughput when the reference data cannot support an
	// interval (e.g. single-context extrapolation to an unobserved SKU).
	PredictedLo, PredictedHi float64
	// ScalingFactor is Predicted/Observed.
	ScalingFactor float64
	// SelectedFeatures documents the feature subset used for similarity.
	SelectedFeatures []telemetry.Feature
}

// Predict runs the full pipeline: sanitize the target measurements (taken
// on their SKU), fingerprint them, find the most similar reference
// workload, fit the scaling model from the target's SKU to toSKU on that
// reference's data, and apply it to the target's observed throughput.
// The fitted scaling stage depends only on (nearest reference, from SKU,
// to SKU), so it is fitted on first use and memoized for later calls.
//
// Predict degrades rather than aborts on dirty inputs: unusable target
// experiments are dropped (see Dropped) as long as at least one survives,
// and when the nearest reference cannot supply a scaling dataset for the
// SKU pair — for example because its runs were rejected during Train —
// the next-nearest reference is used instead.
//
// Predict appends rejected targets to the pipeline's shared Dropped
// accounting and is therefore not safe for concurrent use; long-running
// callers that share one trained pipeline across goroutines (the wpredd
// serving layer) use PredictWithReport instead.
func (p *Pipeline) Predict(target []*telemetry.Experiment, toSKU telemetry.SKU) (*Prediction, error) {
	pred, dropped, err := p.PredictWithReport(target, toSKU)
	p.dropped = append(p.dropped, dropped...)
	return pred, err
}

// PredictWithReport is Predict with per-call degradation accounting: the
// experiments rejected by sanitization are returned to the caller instead
// of being appended to the pipeline's shared Dropped slice. Because it
// only reads pipeline state (the trained references, selected features,
// and configuration), it is safe for any number of goroutines to call
// concurrently on one trained pipeline, and — everything downstream being
// deterministic in the config seed — always returns the same result for
// the same inputs.
func (p *Pipeline) PredictWithReport(target []*telemetry.Experiment, toSKU telemetry.SKU) (*Prediction, []DroppedExperiment, error) {
	sp := obs.StartSpan("pipeline.predict")
	sp.SetAttr("targets", strconv.Itoa(len(target)))
	sp.SetAttr("to_sku", toSKU.String())
	var dropped []DroppedExperiment
	pred, err := p.predict(target, toSKU, sp, &dropped)
	if err != nil {
		sp.SetAttr("error", err.Error())
		predictErr.Inc()
	} else {
		sp.SetAttr("nearest", pred.NearestReference)
		predictOK.Inc()
	}
	sp.End()
	return pred, dropped, err
}

func (p *Pipeline) predict(target []*telemetry.Experiment, toSKU telemetry.SKU, sp *obs.Span, dropped *[]DroppedExperiment) (*Prediction, error) {
	if len(p.refs) == 0 {
		return nil, ErrNotTrained
	}
	if len(target) == 0 {
		return nil, ErrNoTargets
	}
	ssp := sp.Child("sanitize")
	usable := sanitize(target, p.cfg.Sanitize, "predict", dropped)
	predictSanitizeSeconds.ObserveDuration(ssp.End())
	if len(usable) == 0 {
		return nil, fmt.Errorf("%w: sanitization rejected all %d", ErrNoUsableTargets, len(target))
	}
	fromSKU := usable[0].SKU
	for _, e := range usable[1:] {
		if e.SKU != fromSKU {
			return nil, fmt.Errorf("%w: %s and %s", ErrMixedSKUs, fromSKU, e.SKU)
		}
	}

	msp := sp.Child("similarity")
	ranked, dists, err := p.similarTo(usable, fromSKU)
	predictSimilarSeconds.ObserveDuration(msp.End())
	if err != nil {
		return nil, err
	}

	observed := 0.0
	for _, e := range usable {
		observed += e.Throughput
	}
	observed /= float64(len(usable))

	csp := sp.Child("scalemodel")
	defer func() { predictScaleSeconds.ObserveDuration(csp.End()) }()
	var lastErr error
	for _, nearest := range ranked {
		pred, err := p.scaleVia(nearest, fromSKU, toSKU, observed)
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			// A panicking fit is a fault, not missing reference data:
			// fail this prediction rather than answer from another
			// reference.
			return nil, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		csp.SetAttr("reference", nearest)
		pred.NearestReference = nearest
		pred.Distances = dists
		pred.FromSKU, pred.ToSKU = fromSKU, toSKU
		pred.ObservedThroughput = observed
		pred.ScalingFactor = pred.PredictedThroughput / observed
		pred.SelectedFeatures = p.SelectedFeatures()
		return pred, nil
	}
	return nil, fmt.Errorf("%w (tried %d candidates): %v", ErrNoScalingReference, len(ranked), lastErr)
}

// similarTo fingerprints the target alongside same-SKU references and
// returns every reference workload ranked by ascending mean normalized
// distance, plus the distance map itself. Predict walks the ranking so a
// reference with unusable scaling data degrades to the next-nearest.
func (p *Pipeline) similarTo(target []*telemetry.Experiment, sku telemetry.SKU) ([]string, map[string]float64, error) {
	refs := make([]*telemetry.Experiment, 0, len(p.refs))
	for _, e := range p.refs {
		if e.SKU == sku {
			refs = append(refs, e)
		}
	}
	if len(refs) == 0 {
		// Fall back to all references when the SKU was never profiled.
		refs = p.refs
	}
	all := append(append([]*telemetry.Experiment(nil), refs...), target...)

	features := p.selected
	if len(features) == 0 {
		features = telemetry.AllFeatures()
	}
	// Plan-only targets restrict similarity to plan features.
	planOnly := false
	for _, e := range all {
		if e.Resources.Len() == 0 {
			planOnly = true
			break
		}
	}
	if planOnly {
		kept := features[:0:0]
		for _, f := range features {
			if f.Kind() == telemetry.Plan {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			return nil, nil, errors.New("core: plan-only target but no plan features selected")
		}
		features = kept
	}

	// Large libraries go through the VP-tree reference index; small ones
	// (every committed suite) keep the exhaustive matrix bit-for-bit.
	if p.cfg.IndexThreshold > 0 && len(refs) >= p.cfg.IndexThreshold {
		return p.similarToIndexed(refs, target, features, sku, planOnly)
	}

	b := &fingerprint.Builder{Rep: p.cfg.Representation, Features: features}
	if err := b.Fit(all); err != nil {
		return nil, nil, err
	}
	items := make([]simeval.Item, 0, len(all))
	for _, e := range refs {
		fp, err := b.Build(e)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, simeval.Item{Workload: e.Workload, Run: e.Run, FP: fp})
	}
	targetStart := len(items)
	for _, e := range target {
		fp, err := b.Build(e)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, simeval.Item{Workload: "\x00target", Run: e.Run, FP: fp})
	}
	matrix, err := simeval.ComputeMatrix(items, p.cfg.Metric)
	if err != nil {
		return nil, nil, err
	}
	// Mean distance from every target item to each reference workload.
	sums := map[string]float64{}
	counts := map[string]int{}
	for q := targetStart; q < len(items); q++ {
		_, d := matrix.NearestWorkload(q)
		for w, v := range d {
			sums[w] += v
			counts[w]++
		}
	}
	for w := range sums {
		sums[w] /= float64(counts[w])
	}
	return rankWorkloads(sums)
}

// similarToIndexed is the sublinear variant of similarTo (see "Sublinear
// similarity" in DESIGN.md): one VP-tree per (SKU, plan-only) context,
// built lazily on first use and reused across Predict calls. It differs
// from the exhaustive path in two documented ways — the fingerprint
// builder is fitted on the references alone, and each target votes over
// its IndexK nearest references rather than the whole library — which is
// why it only engages beyond IndexThreshold.
func (p *Pipeline) similarToIndexed(refs, target []*telemetry.Experiment, features []telemetry.Feature, sku telemetry.SKU, planOnly bool) ([]string, map[string]float64, error) {
	key := fmt.Sprintf("%v|%t", sku, planOnly)
	p.idxMu.Lock()
	if p.indexes == nil {
		p.indexes = map[string]*refIndex{}
	}
	ix, ok := p.indexes[key]
	if !ok {
		var err error
		ix, err = p.buildRefIndex(refs, features)
		if err != nil {
			p.idxMu.Unlock()
			return nil, nil, err
		}
		p.indexes[key] = ix
	}
	p.idxMu.Unlock()

	// The builder is read-only after Fit and the index is immutable, so
	// concurrent Predict calls only need their own query buffer.
	buf := &ann.QueryBuffer{}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, e := range target {
		fp, err := ix.builder.Build(e)
		if err != nil {
			return nil, nil, err
		}
		_, d, _, err := ix.ri.NearestWorkloadIndexed(fp, p.cfg.IndexK, "", buf)
		if err != nil {
			return nil, nil, err
		}
		for w, v := range d {
			sums[w] += v
			counts[w]++
		}
	}
	for w := range sums {
		sums[w] /= float64(counts[w])
	}
	return rankWorkloads(sums)
}

// rankWorkloads orders reference workloads by ascending mean distance,
// breaking exact ties by name so the nearest reference never depends on
// map iteration order.
func rankWorkloads(means map[string]float64) ([]string, map[string]float64, error) {
	if len(means) == 0 {
		return nil, nil, errors.New("core: no reference workloads to compare against")
	}
	names := make([]string, 0, len(means))
	for w := range means {
		names = append(names, w)
	}
	sort.Slice(names, func(a, b int) bool {
		if means[names[a]] != means[names[b]] {
			return means[names[a]] < means[names[b]]
		}
		return names[a] < names[b]
	})
	return names, means, nil
}

// buildRefIndex fits a fingerprint builder on the references only and
// indexes the resulting fingerprints. Callers hold idxMu.
func (p *Pipeline) buildRefIndex(refs []*telemetry.Experiment, features []telemetry.Feature) (*refIndex, error) {
	b := &fingerprint.Builder{Rep: p.cfg.Representation, Features: features}
	if err := b.Fit(refs); err != nil {
		return nil, err
	}
	items := make([]simeval.Item, 0, len(refs))
	for _, e := range refs {
		fp, err := b.Build(e)
		if err != nil {
			return nil, err
		}
		items = append(items, simeval.Item{Workload: e.Workload, Run: e.Run, FP: fp})
	}
	ri, err := simeval.BuildReferenceIndex(items, p.cfg.Metric, ann.Config{Seed: p.cfg.Seed, Tau: p.cfg.IndexTau})
	if err != nil {
		return nil, err
	}
	return &refIndex{builder: b, ri: ri}, nil
}
