package core

import (
	"errors"
	"fmt"
)

// Sentinel errors for every failure class of the pipeline. All errors
// returned by Train and PredictWithReport wrap one of these, so callers can
// branch with errors.Is regardless of the contextual detail in the
// message.
var (
	// ErrNotTrained is returned by PredictWithReport and State on a zero
	// Pipeline, which neither Train nor Restore built.
	ErrNotTrained = errors.New("core: pipeline is not trained")
	// ErrNoReferences is returned by Train and Restore on a reference
	// suite with no experiments.
	ErrNoReferences = errors.New("core: no reference experiments")
	// ErrNoTargets is returned by PredictWithReport on an empty target set.
	ErrNoTargets = errors.New("core: no target experiments")
	// ErrMixedSKUs is returned by PredictWithReport when the usable target
	// experiments span more than one SKU.
	ErrMixedSKUs = errors.New("core: target experiments span multiple SKUs")
	// ErrTooFewReferences is returned by Train and Restore when
	// sanitization left fewer than Config.MinValidRefs usable reference
	// experiments.
	ErrTooFewReferences = errors.New("core: too few valid reference experiments")
	// ErrNoUsableTargets is returned by PredictWithReport when
	// sanitization rejects every target experiment, or when the usable
	// targets' mean observed throughput is not positive: a prediction
	// scales that throughput, so there is nothing to scale.
	ErrNoUsableTargets = errors.New("core: no usable target experiments")
	// ErrNoScalingReference is returned by PredictWithReport when no
	// reference workload — nearest or fallback — can supply a scaling
	// dataset for the requested SKU pair.
	ErrNoScalingReference = errors.New("core: no reference workload with usable scaling data")
	// ErrCorrupt is returned by Restore when a state's recorded train-stage
	// drops differ from those of the references it is restored onto: the
	// state was not trained on what those references hold.
	ErrCorrupt = errors.New("core: state disagrees with its references")
)

// InsufficientReferencesError carries the sanitization accounting of a
// Train call that failed because too many references were rejected. It
// wraps ErrTooFewReferences, so both errors.Is(err, ErrTooFewReferences)
// and errors.As(err, *InsufficientReferencesError) work.
type InsufficientReferencesError struct {
	// Usable, Total, and Min describe the shortfall.
	Usable, Total, Min int
	// Dropped lists the rejected experiments with their reports.
	Dropped []DroppedExperiment
}

// Error implements error.
func (e *InsufficientReferencesError) Error() string {
	return fmt.Sprintf("%v: %d of %d usable, need %d",
		ErrTooFewReferences, e.Usable, e.Total, e.Min)
}

// Unwrap ties the typed error to its sentinel.
func (e *InsufficientReferencesError) Unwrap() error { return ErrTooFewReferences }
