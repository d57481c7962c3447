package core

import (
	"fmt"

	"wpred/internal/telemetry"
)

// PipelineState is the restorable state of a trained Pipeline: everything
// Train computed that Predict later reads. Together with the Config the
// pipeline was trained under, it fully determines every future prediction.
// Scaling models are fitted from the retained references and the
// deterministic seed the first time a Predict needs a (nearest reference,
// from SKU, to SKU) stage, and memoized in memory only; a restored
// pipeline starts with an empty memo and refits each stage to the same
// bits, so nothing else needs to be captured. The
// snapshot layer (internal/snapshot) serializes this struct to disk and a
// restarted daemon reconstructs pipelines from it with Restore, serving
// byte-identical predictions without refitting.
type PipelineState struct {
	// Refs are the sanitized reference experiments retained by Train (the
	// similarity and scaling knowledge base). They are shared, not deep
	// copies: pipeline references are read-only after Train.
	Refs []*telemetry.Experiment
	// Selected is the feature subset chosen by Train's selection stage.
	Selected []telemetry.Feature
	// Dropped is the train-stage degradation accounting: the reference
	// experiments rejected by sanitization.
	Dropped []DroppedExperiment
}

// State exports the pipeline's trained state for serialization. It fails
// with ErrNotTrained before a successful Train.
func (p *Pipeline) State() (PipelineState, error) {
	if len(p.refs) == 0 {
		return PipelineState{}, ErrNotTrained
	}
	return PipelineState{
		Refs:     append([]*telemetry.Experiment(nil), p.refs...),
		Selected: append([]telemetry.Feature(nil), p.selected...),
		Dropped:  append([]DroppedExperiment(nil), p.dropped...),
	}, nil
}

// Restore reconstructs a trained pipeline from a previously exported state
// without refitting anything: the state's references are installed as-is
// (already sanitized by the original Train, so they are not re-sanitized)
// and the selected features are adopted verbatim. The caller must supply
// the same Config the original pipeline was trained under — same
// selection/metric/strategy, seed, and sanitize policy — or predictions
// will diverge from the original; the snapshot layer enforces this by
// persisting the config identity next to the state and refusing mismatched
// restores. The restored pipeline is safe for concurrent PredictWithReport
// calls, exactly like a freshly trained one.
func Restore(cfg Config, st PipelineState) (*Pipeline, error) {
	if len(st.Refs) == 0 {
		return nil, fmt.Errorf("core: restore: %w", ErrNoReferences)
	}
	if len(st.Selected) == 0 {
		return nil, fmt.Errorf("core: restore: state has no selected features")
	}
	p := New(cfg)
	if len(st.Refs) < p.cfg.MinValidRefs {
		return nil, fmt.Errorf("core: restore: %d references below the minimum of %d",
			len(st.Refs), p.cfg.MinValidRefs)
	}
	p.refs = append([]*telemetry.Experiment(nil), st.Refs...)
	p.selected = append([]telemetry.Feature(nil), st.Selected...)
	p.dropped = append([]DroppedExperiment(nil), st.Dropped...)
	return p, nil
}
