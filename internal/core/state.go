package core

import (
	"fmt"

	"wpred/internal/telemetry"
)

// PipelineState is the restorable state of a trained Pipeline: what Train
// learned beyond the references themselves. Every configuration trains
// against the same reference suite (the paper's Figure 2), so a key's
// state is only its selected feature subset and the train-stage drop
// accounting; Restore reattaches it to References sanitized from that
// suite. Scaling models are fitted from the references and the
// deterministic seed the first time a Predict needs a (nearest reference,
// from SKU, to SKU) stage, and memoized in memory only; a restored
// pipeline starts with an empty memo and refits each stage to the same
// bits, so nothing else needs to be captured. The snapshot layer
// (internal/snapshot) serializes this struct to disk and a restarted
// daemon reconstructs pipelines from it with Restore, serving
// byte-identical predictions without refitting.
type PipelineState struct {
	// Selected is the feature subset chosen by Train's selection stage.
	Selected []telemetry.Feature
	// Dropped is the train-stage degradation accounting: the reference
	// experiments rejected by sanitization, in suite order.
	Dropped []DroppedExperiment
}

// References is a reference suite sanitized under one policy: exactly the
// experiments Train keeps from that suite, and the ones it drops. It is
// read-only once built, so every pipeline restored onto it shares its
// experiments instead of holding a copy.
type References struct {
	policy  telemetry.SanitizePolicy
	kept    []*telemetry.Experiment
	dropped []DroppedExperiment
}

// SanitizeReferences sanitizes a reference suite the way Train does under
// policy. Build it once per suite and restore any number of pipelines
// onto it.
func SanitizeReferences(refs []*telemetry.Experiment, policy telemetry.SanitizePolicy) *References {
	r := &References{policy: policy}
	r.kept = sanitize(refs, policy, "train", &r.dropped)
	return r
}

// State exports the pipeline's trained state for serialization. It fails
// with ErrNotTrained before a successful Train.
func (p *Pipeline) State() (PipelineState, error) {
	if len(p.refs) == 0 {
		return PipelineState{}, ErrNotTrained
	}
	st := PipelineState{Selected: append([]telemetry.Feature(nil), p.selected...)}
	for _, d := range p.dropped {
		if d.Stage == "train" {
			st.Dropped = append(st.Dropped, d)
		}
	}
	return st, nil
}

// Restore reconstructs a trained pipeline from a previously exported state
// without refitting anything: the selected features are adopted verbatim
// and refs become the pipeline's knowledge base, shared, not copied. The
// caller must supply the Config the original pipeline was trained under —
// same selection/metric/strategy, seed, and sanitize policy — and
// references sanitized from the suite it trained on, or predictions will
// diverge from the original; the snapshot layer enforces this by
// persisting the config identity and the suite's hash next to the state
// and refusing mismatched restores. Restore itself checks what it can:
// refs must have been sanitized under cfg's policy, and the state's
// recorded drops must be exactly the ones refs drops, or it fails with
// ErrCorrupt. The restored pipeline is safe for concurrent
// PredictWithReport calls, exactly like a freshly trained one.
func Restore(cfg Config, refs *References, st PipelineState) (*Pipeline, error) {
	if refs == nil || len(refs.kept) == 0 {
		return nil, fmt.Errorf("core: restore: %w", ErrNoReferences)
	}
	if len(st.Selected) == 0 {
		return nil, fmt.Errorf("core: restore: state has no selected features")
	}
	p := New(cfg)
	if refs.policy != p.cfg.Sanitize {
		return nil, fmt.Errorf("core: restore: references were sanitized under another policy")
	}
	if len(refs.kept) < p.cfg.MinValidRefs {
		return nil, fmt.Errorf("core: restore: %d references below the minimum of %d",
			len(refs.kept), p.cfg.MinValidRefs)
	}
	if !sameDrops(st.Dropped, refs.dropped) {
		return nil, fmt.Errorf("core: restore: %w: the state records %d dropped references, the suite drops %d differently",
			ErrCorrupt, len(st.Dropped), len(refs.dropped))
	}
	p.refs = refs.kept
	p.selected = append([]telemetry.Feature(nil), st.Selected...)
	p.dropped = append([]DroppedExperiment(nil), refs.dropped...)
	return p, nil
}

// sameDrops reports whether two drop lists name the same experiments, in
// the same order, with identical corruption reports.
func sameDrops(a, b []DroppedExperiment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Workload != y.Workload || x.Stage != y.Stage {
			return false
		}
		if (x.Report == nil) != (y.Report == nil) || (x.Report != nil && *x.Report != *y.Report) {
			return false
		}
	}
	return true
}
