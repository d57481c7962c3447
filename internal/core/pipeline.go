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
	"wpred/internal/telemetry"
)

// Pipeline telemetry (see "Observability" in DESIGN.md): per-stage
// wall-clock histograms for training (sanitize, once per suite in
// SanitizeReferences; featsel, once per Train) and Predict (sanitize,
// similarity, scalemodel), dropped-experiment counters fed by the fault
// layer's sanitization rejections, and run counters by outcome. The
// matching tracing spans are pipeline.sanitize, and pipeline.train /
// pipeline.predict with one child span per stage.
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
	// (ann.Index) once the same-SKU reference set reaches this many
	// experiments, replacing the distance to every reference with
	// per-target k-NN lookups. Below the threshold every target is scored
	// against every reference, so small suites — including every
	// committed experiment — stay byte-identical. The indexed path differs
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

// References is a reference suite sanitized under one policy: exactly the
// experiments a pipeline learns from, and the ones sanitization dropped.
// It is read-only once built, so every pipeline trained on or restored
// onto it shares its experiments instead of holding a copy.
type References struct {
	policy  telemetry.SanitizePolicy
	kept    []*telemetry.Experiment
	dropped []DroppedExperiment
}

// SanitizeReferences sanitizes a reference suite under policy. Build it
// once per suite and train or restore any number of pipelines on it; the
// train-stage sanitize histogram and dropped counter observe this call,
// not each pipeline built on its result.
func SanitizeReferences(refs []*telemetry.Experiment, policy telemetry.SanitizePolicy) *References {
	sp := obs.StartSpan("pipeline.sanitize")
	sp.SetAttr("refs", strconv.Itoa(len(refs)))
	r := &References{policy: policy}
	r.kept = sanitize(refs, policy, "train", &r.dropped)
	sp.SetAttr("dropped", strconv.Itoa(len(r.dropped)))
	trainSanitizeSeconds.ObserveDuration(sp.End())
	return r
}

// Pipeline is the trained end-to-end predictor. Train and Restore are its
// only constructors, and it never changes once built: its references,
// selected features and configuration are fixed, and its two caches only
// memoize what those determine. Any number of goroutines may call
// PredictWithReport on one pipeline concurrently.
type Pipeline struct {
	cfg      Config
	refs     *References
	selected []telemetry.Feature

	// contexts holds the reference side of similarity, one refContext per
	// contextKey, each built by the first Predict that needs it and never
	// changed. Guarded by ctxMu.
	ctxMu    sync.Mutex
	contexts map[contextKey]*refContext

	// memo caches the scaling stage per (nearest reference, from SKU, to
	// SKU): the fitted factor and interval, filled lazily and single-flight
	// by the first Predict that needs them (see stageFor). Guarded by
	// memoMu; never persisted.
	memoMu sync.Mutex
	memo   map[scaleKey]*memoEntry
}

// TrainPipeline sanitizes refs under cfg's policy and trains a pipeline on
// them. Callers that build several pipelines on one suite sanitize it once
// with SanitizeReferences and call Train instead.
func TrainPipeline(cfg Config, refs []*telemetry.Experiment) (*Pipeline, error) {
	return Train(cfg, SanitizeReferences(refs, cfg.Sanitize))
}

// Train runs feature selection over the usable experiments of refs, which
// must have been sanitized under cfg's policy, and returns a pipeline that
// predicts from them. It fails with ErrNoReferences on a suite with no
// experiments and with an *InsufficientReferencesError when fewer than
// Config.MinValidRefs survived sanitization.
func Train(cfg Config, refs *References) (*Pipeline, error) {
	sp := obs.StartSpan("pipeline.train")
	defer sp.End()
	p, err := newPipeline(cfg, refs)
	if err == nil {
		sp.SetAttr("refs", strconv.Itoa(len(refs.kept)))
		p.selected, err = p.selectFeatures(sp)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		trainErr.Inc()
		return nil, err
	}
	sp.SetAttr("selected", strconv.Itoa(len(p.selected)))
	trainOK.Inc()
	return p, nil
}

// newPipeline is the constructor Train and Restore share: it checks that
// refs can back a pipeline under cfg and returns one with no features
// selected yet.
func newPipeline(cfg Config, refs *References) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if refs == nil || len(refs.kept)+len(refs.dropped) == 0 {
		return nil, ErrNoReferences
	}
	if refs.policy != cfg.Sanitize {
		return nil, errors.New("core: references were sanitized under another policy")
	}
	if len(refs.kept) < cfg.MinValidRefs {
		return nil, &InsufficientReferencesError{
			Usable: len(refs.kept), Total: len(refs.kept) + len(refs.dropped), Min: cfg.MinValidRefs,
			Dropped: append([]DroppedExperiment(nil), refs.dropped...),
		}
	}
	return &Pipeline{cfg: cfg, refs: refs}, nil
}

// selectFeatures runs the selection strategy over systematic samples of
// the references and returns the top-K features.
func (p *Pipeline) selectFeatures(sp *obs.Span) ([]telemetry.Feature, error) {
	fsp := sp.Child("featsel")
	defer func() { trainFeatselSeconds.ObserveDuration(fsp.End()) }()
	// One sub-experiment row per systematic sample, labeled by workload.
	var subs []*telemetry.Experiment
	for _, e := range p.refs.kept {
		subs = append(subs, e.SystematicSample(p.cfg.Subsamples)...)
	}
	ds := telemetry.BuildDataset(subs, nil)
	ds.MinMaxNormalize()
	res, err := p.cfg.Selection.Evaluate(ds.X, ds.Labels)
	if err != nil {
		return nil, fmt.Errorf("core: feature selection: %w", err)
	}
	cols := res.TopK(p.cfg.TopK)
	selected := make([]telemetry.Feature, len(cols))
	for i, c := range cols {
		selected[i] = ds.Features[c]
	}
	return selected, nil
}

// References returns the sanitized suite the pipeline was built on,
// shared with every other pipeline built on it.
func (p *Pipeline) References() *References { return p.refs }

// SelectedFeatures returns the features chosen by Train.
func (p *Pipeline) SelectedFeatures() []telemetry.Feature {
	return append([]telemetry.Feature(nil), p.selected...)
}

// Dropped returns the reference experiments sanitization rejected from the
// pipeline's suite, in suite order. It is fixed when the pipeline is
// built; PredictWithReport returns each call's rejected targets instead.
func (p *Pipeline) Dropped() []DroppedExperiment {
	if p.refs == nil {
		return nil
	}
	return append([]DroppedExperiment(nil), p.refs.dropped...)
}

// sanitize runs the corruption pass over a batch under policy, recording
// rejections under the given stage into dst, and returns the usable
// sanitized experiments. The collector is caller-owned so concurrent
// predictions never append to shared pipeline state.
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

// WorkloadDistance is one reference workload's mean normalized distance to
// the target (smaller = more similar).
type WorkloadDistance struct {
	Workload string
	Distance float64
}

// Prediction is the result of an end-to-end throughput prediction.
type Prediction struct {
	// NearestReference is the reference workload whose scaling model
	// served the prediction: the first entry of Distances that had usable
	// scaling data for the SKU pair.
	NearestReference string
	// Distances ranks every reference workload by ascending mean
	// normalized distance to the target, exact ties broken by name.
	Distances []WorkloadDistance
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

// PredictWithReport runs the full pipeline: sanitize the target
// measurements (taken on their SKU), fingerprint them, find the most
// similar reference workload, fit the scaling model from the target's SKU
// to toSKU on that reference's data, and apply it to the target's observed
// throughput. The fitted scaling stage depends only on (nearest reference,
// from SKU, to SKU), so it is fitted on first use and memoized for later
// calls.
//
// It degrades rather than aborts on dirty inputs: unusable target
// experiments are dropped, and returned with their corruption reports
// (also alongside an error), as long as at least one survives; and when
// the nearest reference cannot supply a scaling dataset for the SKU pair
// — for example because its runs were rejected by sanitization — the
// next-nearest reference is used instead.
//
// It only reads what the pipeline was built with, so any number of
// goroutines may call it concurrently, and — everything downstream being
// deterministic in the config seed — it always returns the same result
// for the same inputs.
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
	if p.refs == nil {
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

	observed := 0.0
	for _, e := range usable {
		observed += e.Throughput
	}
	observed /= float64(len(usable))
	if !(observed > 0) {
		return nil, fmt.Errorf("%w: mean observed throughput %v is not positive", ErrNoUsableTargets, observed)
	}

	msp := sp.Child("similarity")
	ranked, err := p.similarTo(usable, fromSKU)
	predictSimilarSeconds.ObserveDuration(msp.End())
	if err != nil {
		return nil, err
	}

	csp := sp.Child("scalemodel")
	defer func() { predictScaleSeconds.ObserveDuration(csp.End()) }()
	var lastErr error
	for _, c := range ranked {
		nearest := c.Workload
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
		pred.Distances = ranked
		pred.FromSKU, pred.ToSKU = fromSKU, toSKU
		pred.ObservedThroughput = observed
		pred.ScalingFactor = pred.PredictedThroughput / observed
		pred.SelectedFeatures = p.SelectedFeatures()
		return pred, nil
	}
	return nil, fmt.Errorf("%w (tried %d candidates): %v", ErrNoScalingReference, len(ranked), lastErr)
}

// contextKey names one reference context: the targets' SKU, or
// unprofiled for every SKU no reference was measured on, and whether any
// target is plan-only.
type contextKey struct {
	sku        telemetry.SKU
	unprofiled bool
	planOnly   bool
}

// refContext is the reference side of similarity for one contextKey: the
// references targets are scored against and the features compared. At
// IndexThreshold references and beyond it also holds the builder fitted on
// the references alone, which must encode targets too, and the VP-tree
// over their fingerprints. It never changes once built.
type refContext struct {
	refs     []*telemetry.Experiment
	features []telemetry.Feature
	builder  *fingerprint.Builder
	index    *ann.Index
}

// context returns the reference context for targets measured on sku,
// building it on first use. Every SKU the suite never profiled shares one
// context over all references, so a pipeline holds at most two contexts
// per profiled SKU, plus two, whatever SKUs targets name.
func (p *Pipeline) context(sku telemetry.SKU, planOnly bool) (*refContext, error) {
	k := contextKey{sku: sku, planOnly: planOnly}
	p.ctxMu.Lock()
	defer p.ctxMu.Unlock()
	if c := p.contexts[k]; c != nil {
		return c, nil
	}
	var refs []*telemetry.Experiment
	for _, e := range p.refs.kept {
		if e.SKU == sku {
			refs = append(refs, e)
		}
	}
	if len(refs) == 0 {
		// Fall back to all references when the SKU was never profiled.
		k = contextKey{unprofiled: true, planOnly: planOnly}
		if c := p.contexts[k]; c != nil {
			return c, nil
		}
		refs = p.refs.kept
	}
	c, err := p.newContext(refs, planOnly)
	if err != nil {
		return nil, err
	}
	if p.contexts == nil {
		p.contexts = map[contextKey]*refContext{}
	}
	p.contexts[k] = c
	return c, nil
}

// newContext builds the context over refs. Similarity is restricted to
// plan features when any target or reference is plan-only.
func (p *Pipeline) newContext(refs []*telemetry.Experiment, planOnly bool) (*refContext, error) {
	features := p.selected
	if len(features) == 0 {
		features = telemetry.AllFeatures()
	}
	if planOnly || anyPlanOnly(refs) {
		kept := features[:0:0]
		for _, f := range features {
			if f.Kind() == telemetry.Plan {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			return nil, errors.New("core: plan-only target but no plan features selected")
		}
		features = kept
	}
	c := &refContext{refs: refs, features: features}
	if p.cfg.IndexThreshold <= 0 || len(refs) < p.cfg.IndexThreshold {
		return c, nil
	}
	c.builder = &fingerprint.Builder{Rep: p.cfg.Representation, Features: features}
	if err := c.builder.Fit(refs); err != nil {
		return nil, err
	}
	fps, err := c.builder.BuildAll(refs)
	if err != nil {
		return nil, err
	}
	items := make([]ann.Item, len(refs))
	for i, e := range refs {
		items[i] = ann.Item{Label: e.Workload, FP: fps[i]}
	}
	c.index, err = ann.Build(items, p.cfg.Metric, ann.Config{Seed: p.cfg.Seed, Tau: p.cfg.IndexTau})
	return c, err
}

// anyPlanOnly reports whether any of exps carries no resource telemetry.
func anyPlanOnly(exps []*telemetry.Experiment) bool {
	for _, e := range exps {
		if e.Resources.Len() == 0 {
			return true
		}
	}
	return false
}

// similarTo scores the targets against the references of their context
// and returns every reference workload scored, ranked by ascending mean
// normalized distance. Predict walks the ranking so a reference with
// unusable scaling data degrades to the next-nearest.
func (p *Pipeline) similarTo(target []*telemetry.Experiment, sku telemetry.SKU) ([]WorkloadDistance, error) {
	c, err := p.context(sku, anyPlanOnly(target))
	if err != nil {
		return nil, err
	}
	scores, err := c.score(target, p.cfg)
	if err != nil {
		return nil, err
	}
	// The decision rule of §6.2.3 (Matrix.NearestWorkload): per target,
	// the mean distance to each workload it was scored against, summed in
	// reference order; then each workload's mean over the targets that
	// scored it.
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, row := range scores {
		means := map[string]float64{}
		n := map[string]int{}
		for _, r := range row {
			means[r.Label] += r.Distance
			n[r.Label]++
		}
		for w, v := range means {
			sums[w] += v / float64(n[w])
			counts[w]++
		}
	}
	for w := range sums {
		sums[w] /= float64(counts[w])
	}
	return rankWorkloads(sums)
}

// score returns, per target, its distance to each reference it is scored
// against, in reference order: every reference below IndexThreshold, the
// IndexK nearest at and beyond it (see "Sublinear similarity" in
// DESIGN.md).
func (c *refContext) score(target []*telemetry.Experiment, cfg Config) ([][]ann.Result, error) {
	b, exps := c.builder, target
	if b == nil {
		// Fitted per call on the references and the targets together, so
		// both share normalization ranges. The input is a fresh slice: the
		// context's references are shared by every call.
		exps = append(append(make([]*telemetry.Experiment, 0, len(c.refs)+len(target)), c.refs...), target...)
		b = &fingerprint.Builder{Rep: cfg.Representation, Features: c.features}
		if err := b.Fit(exps); err != nil {
			return nil, err
		}
	}
	fps, err := b.BuildAll(exps)
	if err != nil {
		return nil, err
	}
	refFPs := fps[:len(exps)-len(target)]
	scores := make([][]ann.Result, len(target))
	buf := &ann.QueryBuffer{}
	for t, q := range fps[len(refFPs):] {
		if c.index != nil {
			row, _, err := c.index.KNN(q, cfg.IndexK, buf)
			if err != nil {
				return nil, err
			}
			sort.Slice(row, func(a, b int) bool { return row[a].Index < row[b].Index })
			scores[t] = row
			continue
		}
		scores[t] = make([]ann.Result, len(refFPs))
		for i, r := range refFPs {
			// Reference first, the order ComputeMatrix evaluated each
			// pair in.
			d, err := cfg.Metric.Distance(r.M, q.M)
			if err != nil {
				return nil, fmt.Errorf("core: %s(%s,%s): %w", cfg.Metric.Name(), c.refs[i].Workload, target[t].Workload, err)
			}
			scores[t][i] = ann.Result{Index: i, Label: c.refs[i].Workload, Distance: d}
		}
	}
	return scores, nil
}

// rankWorkloads orders reference workloads by ascending mean distance,
// breaking exact ties by name so neither the nearest reference nor the
// order Prediction.Distances lists them in depends on map iteration order.
func rankWorkloads(means map[string]float64) ([]WorkloadDistance, error) {
	if len(means) == 0 {
		return nil, errors.New("core: no reference workloads to compare against")
	}
	ranked := make([]WorkloadDistance, 0, len(means))
	for w, d := range means {
		ranked = append(ranked, WorkloadDistance{Workload: w, Distance: d})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].Distance != ranked[b].Distance {
			return ranked[a].Distance < ranked[b].Distance
		}
		return ranked[a].Workload < ranked[b].Workload
	})
	return ranked, nil
}
