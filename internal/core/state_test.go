package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/telemetry"
)

// stateSuite simulates a small reference suite and a target for the
// export/restore tests.
func stateSuite(t *testing.T) (refs, target []*telemetry.Experiment) {
	t.Helper()
	skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
	src := telemetry.NewSource(42)
	refs = bench.GenerateSuite(bench.Standard()[:3], skus, []int{4}, 2, src)
	target = []*telemetry.Experiment{refs[0]}
	if len(refs) == 0 {
		t.Fatal("no experiments generated")
	}
	return refs, target
}

// predictJSON renders one prediction for byte comparisons.
func predictJSON(t *testing.T, p *Pipeline, target []*telemetry.Experiment, to telemetry.SKU) ([]byte, []DroppedExperiment) {
	t.Helper()
	pred, dropped, err := p.PredictWithReport(target, to)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(pred)
	if err != nil {
		t.Fatal(err)
	}
	return b, dropped
}

// TestStateRestoreRoundTrip trains a pipeline, exports its state, restores
// a second pipeline from it onto references sanitized from the same suite,
// and asserts the two produce byte-identical predictions — the contract
// the snapshot layer builds on. A suite with a rejected reference checks
// that the drop accounting survives too.
func TestStateRestoreRoundTrip(t *testing.T) {
	refs, target := stateSuite(t)
	refs = append(append([]*telemetry.Experiment(nil), refs...), wreck(refs[1]))
	cfg := Config{Seed: 42}

	orig, err := TrainPipeline(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := orig.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Dropped) != 1 {
		t.Fatalf("state records %d drops, want the wrecked reference", len(st.Dropped))
	}
	restored, err := Restore(cfg, SanitizeReferences(refs, cfg.Sanitize), st)
	if err != nil {
		t.Fatal(err)
	}

	toSKU := telemetry.SKU{CPUs: 4, MemoryGB: 32}
	b1, d1 := predictJSON(t, orig, target, toSKU)
	b2, d2 := predictJSON(t, restored, target, toSKU)
	if !bytes.Equal(b1, b2) {
		t.Errorf("restored pipeline predicts differently:\n%s\nvs\n%s", b1, b2)
	}
	if len(d1) != len(d2) {
		t.Errorf("dropped accounting differs: %d vs %d", len(d1), len(d2))
	}
	if got, want := restored.Dropped(), orig.Dropped(); !sameDrops(got, want) {
		t.Errorf("restored drops %v, want %v", got, want)
	}
	if got, want := restored.SelectedFeatures(), orig.SelectedFeatures(); len(got) != len(want) {
		t.Errorf("selected features differ: %v vs %v", got, want)
	}
}

// TestStateExportsTrainDropsOnly: Predict appends rejected targets to the
// pipeline's drop accounting, but the exported state keeps the train
// stage only, so it still restores onto the suite's references.
func TestStateExportsTrainDropsOnly(t *testing.T) {
	refs, target := stateSuite(t)
	cfg := Config{Seed: 42}
	p, err := TrainPipeline(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(append([]*telemetry.Experiment{wreck(target[0])}, target...), telemetry.SKU{CPUs: 4, MemoryGB: 32}); err != nil {
		t.Fatal(err)
	}
	if len(p.Dropped()) != 1 {
		t.Fatalf("Predict recorded %d drops, want 1", len(p.Dropped()))
	}
	st, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Dropped) != 0 {
		t.Fatalf("state exported predict-stage drops: %v", st.Dropped)
	}
	if _, err := Restore(cfg, SanitizeReferences(refs, cfg.Sanitize), st); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSharesReferences: pipelines restored onto one References
// share its experiments and its slice; none holds a copy of the suite.
func TestRestoreSharesReferences(t *testing.T) {
	refs, _ := stateSuite(t)
	cfg := Config{Seed: 42}
	p, err := TrainPipeline(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	shared := SanitizeReferences(refs, cfg.Sanitize)
	a, err := Restore(cfg, shared, st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Restore(cfg, shared, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.refs) != len(shared.kept) || &a.refs[0] != &shared.kept[0] || &b.refs[0] != &a.refs[0] {
		t.Fatal("restored pipelines do not share the references slice")
	}
}

// TestRestoreRejectsDisagreeingDrops: a state whose recorded drops are not
// what the references drop was not trained on those references, so
// Restore fails with ErrCorrupt.
func TestRestoreRejectsDisagreeingDrops(t *testing.T) {
	refs, _ := stateSuite(t)
	wrecked := append(append([]*telemetry.Experiment(nil), refs...), wreck(refs[1]))
	cfg := Config{Seed: 42}
	p, err := TrainPipeline(cfg, wrecked)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.State()
	if err != nil {
		t.Fatal(err)
	}

	// The state drops one reference; the clean suite drops none.
	if _, err := Restore(cfg, SanitizeReferences(refs, cfg.Sanitize), st); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing drop: got %v, want ErrCorrupt", err)
	}
	// Same count, different report.
	edited := st
	edited.Dropped = append([]DroppedExperiment(nil), st.Dropped...)
	rep := *edited.Dropped[0].Report
	rep.Ticks++
	edited.Dropped[0].Report = &rep
	if _, err := Restore(cfg, SanitizeReferences(wrecked, cfg.Sanitize), edited); !errors.Is(err, ErrCorrupt) {
		t.Errorf("edited report: got %v, want ErrCorrupt", err)
	}
	if _, err := Restore(cfg, SanitizeReferences(wrecked, cfg.Sanitize), st); err != nil {
		t.Errorf("matching drops: %v", err)
	}
}

// TestStateErrors covers the export/restore failure surface: exporting an
// untrained pipeline and restoring without references, without selected
// features, below MinValidRefs, or onto references sanitized under another
// policy must all fail loudly instead of yielding a pipeline that panics
// or diverges later.
func TestStateErrors(t *testing.T) {
	if _, err := New(Config{}).State(); err == nil {
		t.Error("State on an untrained pipeline should fail")
	}
	sel := PipelineState{Selected: []telemetry.Feature{telemetry.CPUUtilization}}
	if _, err := Restore(Config{}, nil, sel); !errors.Is(err, ErrNoReferences) {
		t.Errorf("Restore with no references: got %v, want ErrNoReferences", err)
	}
	refs, _ := stateSuite(t)
	if _, err := Restore(Config{}, SanitizeReferences(refs[:2], telemetry.SanitizePolicy{}), PipelineState{}); err == nil {
		t.Error("Restore with no selected features should fail")
	}
	if _, err := Restore(Config{MinValidRefs: 2}, SanitizeReferences(refs[:1], telemetry.SanitizePolicy{}), sel); err == nil {
		t.Error("Restore below MinValidRefs should fail")
	}
	other := telemetry.SanitizePolicy{MinTicks: 30}
	if _, err := Restore(Config{}, SanitizeReferences(refs, other), sel); err == nil {
		t.Error("Restore onto references sanitized under another policy should fail")
	}
}
