// Request decoding and response rendering for the wpredd prediction
// service. The decoder is total: any byte stream either yields a fully
// validated request or a descriptive error — never a panic — which the
// FuzzDecodePredictRequest corpus locks in. Responses are rendered from
// explicit structs with slices in deterministic order (never bare maps
// with float keys or iteration-order dependence), so identical requests
// produce byte-identical bodies regardless of concurrency or cache state.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"wpred/internal/core"
	"wpred/internal/distance"
	"wpred/internal/featsel"
	"wpred/internal/scalemodel"
	"wpred/internal/telemetry"
)

// Request-size guards. The HTTP handlers additionally cap the raw body
// with http.MaxBytesReader; these bound the decoded shape.
const (
	// MaxTargetsPerItem bounds the target experiments in one prediction.
	MaxTargetsPerItem = 64
	// MaxBatchItems bounds the predictions in one /v1/predict/batch call.
	MaxBatchItems = 256
	// maxSKUCPUs bounds the hardware sizes a request may name.
	maxSKUCPUs = 4096
)

// Defaults for the model key when a request leaves a field empty — the
// paper's recommended configuration (RFE-LogReg features, L2,1 norm
// similarity, pairwise SVM scaling models).
const (
	DefaultSelection = "RFE LogReg"
	DefaultMetric    = "L2,1"
	DefaultModel     = "SVM"
)

// skuJSON is the wire form of a hardware configuration.
type skuJSON struct {
	CPUs     int `json:"cpus"`
	MemoryGB int `json:"memory_gb"`
}

// predictRequest is the wire form of one prediction: an optional model
// key (selection × metric × model family), the target SKU, and the target
// workload's telemetry in the wlgen/library experiment format. Targets
// decode straight into the telemetry wire struct, in the same pass as the
// rest of the body.
type predictRequest struct {
	Selection string                     `json:"selection,omitempty"`
	Metric    string                     `json:"metric,omitempty"`
	Model     string                     `json:"model,omitempty"`
	ToSKU     skuJSON                    `json:"to_sku"`
	Target    []telemetry.ExperimentJSON `json:"target"`
}

// batchRequest is the wire form of /v1/predict/batch.
type batchRequest struct {
	Requests []predictRequest `json:"requests"`
}

// PredictRequest is a decoded, validated prediction request.
type PredictRequest struct {
	// Key is the resolved model-registry key (defaults applied).
	Key Key
	// ToSKU is the prediction's target hardware.
	ToSKU telemetry.SKU
	// Target holds the decoded target experiments.
	Target []*telemetry.Experiment
}

// selectionByName resolves a feature-selection strategy display name
// (featsel.Strategy.Name) case-sensitively. seed feeds the randomized
// strategies so a given server seed always builds the same selector.
func selectionByName(name string, seed uint64) (featsel.Strategy, bool) {
	for _, s := range featsel.AllStrategies(seed) {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// metricByName resolves a similarity measure display name
// (distance.Metric.Name) over the matrix norms and time-series measures.
func metricByName(name string) (distance.Metric, bool) {
	for _, m := range append(distance.Norms(), distance.TimeSeriesMetrics()...) {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// knownNames renders the valid values for an unknown-name error.
func knownNames[T any](all []T, name func(T) string) string {
	names := make([]string, len(all))
	for i, v := range all {
		names[i] = name(v)
	}
	sort.Strings(names)
	return fmt.Sprintf("%q", names)
}

// errTooLarge marks a request the handler should reject with 413.
var errTooLarge = errors.New("serve: request body too large")

// decodePredictRequest decodes and validates one prediction request. Every
// failure is a client error: malformed JSON, unknown fields (target
// documents included), unknown algorithm or feature names, out-of-range
// SKUs, and empty or oversized target lists are all rejected with
// descriptive messages.
func decodePredictRequest(r io.Reader) (*PredictRequest, error) {
	var raw predictRequest
	if err := decodeStrict(r, &raw, "request"); err != nil {
		return nil, err
	}
	return validatePredictRequest(&raw)
}

// decodeStrict decodes one JSON object from r into v in a single pass.
// Unknown fields at any depth and trailing data after the object (what
// names it in the error) are rejected. The body-size sentinel
// (http.MaxBytesReader surfaces *http.MaxBytesError through json) stays
// distinct, so the handler can answer 413 instead of 400.
func decodeStrict(r io.Reader, v any, what string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errTooLarge
		}
		return fmt.Errorf("serve: decode request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after %s object", what)
	}
	return nil
}

// validateKey applies defaults and resolves the key's algorithm names
// against the live catalogs, shared by the predict and observe decoders.
func validateKey(selection, metric, model string) (Key, error) {
	k := Key{Selection: selection, Metric: metric, Model: model}.withDefaults()
	if _, ok := selectionByName(k.Selection, 0); !ok {
		return Key{}, fmt.Errorf("serve: unknown selection %q (one of %s)",
			k.Selection, knownNames(featsel.AllStrategies(0), featsel.Strategy.Name))
	}
	if _, ok := metricByName(k.Metric); !ok {
		return Key{}, fmt.Errorf("serve: unknown metric %q (one of %s)",
			k.Metric, knownNames(append(distance.Norms(), distance.TimeSeriesMetrics()...), distance.Metric.Name))
	}
	if _, ok := scalemodel.StrategyByName(k.Model); !ok {
		return Key{}, fmt.Errorf("serve: unknown model %q (one of %s)",
			k.Model, knownNames(scalemodel.Strategies(), scalemodel.Strategy.String))
	}
	return k, nil
}

func validatePredictRequest(raw *predictRequest) (*PredictRequest, error) {
	key, err := validateKey(raw.Selection, raw.Metric, raw.Model)
	if err != nil {
		return nil, err
	}
	req := &PredictRequest{Key: key}

	if raw.ToSKU.CPUs < 1 || raw.ToSKU.CPUs > maxSKUCPUs {
		return nil, fmt.Errorf("serve: to_sku.cpus must be in [1, %d], got %d", maxSKUCPUs, raw.ToSKU.CPUs)
	}
	if raw.ToSKU.MemoryGB < 0 {
		return nil, fmt.Errorf("serve: to_sku.memory_gb must be >= 0, got %d", raw.ToSKU.MemoryGB)
	}
	req.ToSKU = telemetry.SKU{CPUs: raw.ToSKU.CPUs, MemoryGB: raw.ToSKU.MemoryGB}
	if req.ToSKU.MemoryGB == 0 {
		// Match the CLI convention: unspecified memory scales 8 GB/CPU.
		req.ToSKU.MemoryGB = 8 * req.ToSKU.CPUs
	}

	if len(raw.Target) == 0 {
		return nil, errors.New("serve: request has no target experiments")
	}
	if len(raw.Target) > MaxTargetsPerItem {
		return nil, fmt.Errorf("serve: %d target experiments exceed the per-request cap of %d", len(raw.Target), MaxTargetsPerItem)
	}
	req.Target = make([]*telemetry.Experiment, len(raw.Target))
	for i := range raw.Target {
		e, err := raw.Target[i].Experiment()
		if err != nil {
			return nil, fmt.Errorf("serve: target[%d]: %w", i, err)
		}
		if !finite(e.Throughput) || !finite(e.MeanLatMS) {
			return nil, fmt.Errorf("serve: target[%d]: non-finite throughput or latency", i)
		}
		req.Target[i] = e
	}
	return req, nil
}

// decodeBatchRequest decodes /v1/predict/batch: a "requests" array whose
// items each validate exactly like a single prediction request.
func decodeBatchRequest(r io.Reader) ([]*PredictRequest, error) {
	var raw batchRequest
	if err := decodeStrict(r, &raw, "batch"); err != nil {
		return nil, err
	}
	if len(raw.Requests) == 0 {
		return nil, errors.New("serve: batch has no requests")
	}
	if len(raw.Requests) > MaxBatchItems {
		return nil, fmt.Errorf("serve: %d batch items exceed the cap of %d", len(raw.Requests), MaxBatchItems)
	}
	out := make([]*PredictRequest, len(raw.Requests))
	for i := range raw.Requests {
		req, err := validatePredictRequest(&raw.Requests[i])
		if err != nil {
			return nil, fmt.Errorf("serve: requests[%d]: %w", i, err)
		}
		out[i] = req
	}
	return out, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// distanceJSON is one reference-distance table entry.
type distanceJSON struct {
	Workload string  `json:"workload"`
	Distance float64 `json:"distance"`
}

// droppedJSON reports one target experiment rejected by sanitization.
type droppedJSON struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Report   string `json:"report"`
}

// predictResponse is the wire form of a successful prediction. All slices
// are deterministically ordered (distances in the pipeline's rank order,
// ascending with name tie-break; dropped reports in input order), so the
// encoded body is byte-identical for identical requests.
type predictResponse struct {
	Selection           string         `json:"selection"`
	Metric              string         `json:"metric"`
	Model               string         `json:"model"`
	NearestReference    string         `json:"nearest_reference"`
	Distances           []distanceJSON `json:"distances"`
	FromSKU             skuJSON        `json:"from_sku"`
	ToSKU               skuJSON        `json:"to_sku"`
	ObservedThroughput  float64        `json:"observed_throughput"`
	PredictedThroughput float64        `json:"predicted_throughput"`
	PredictedLo         float64        `json:"predicted_lo"`
	PredictedHi         float64        `json:"predicted_hi"`
	ScalingFactor       float64        `json:"scaling_factor"`
	SelectedFeatures    []string       `json:"selected_features"`
	Dropped             []droppedJSON  `json:"dropped,omitempty"`
}

// renderPrediction builds the response body for one prediction. It fails
// (rather than emitting invalid JSON) if any numeric field is non-finite.
func renderPrediction(key Key, pred *core.Prediction, dropped []core.DroppedExperiment) (*predictResponse, error) {
	for _, v := range []float64{
		pred.ObservedThroughput, pred.PredictedThroughput,
		pred.PredictedLo, pred.PredictedHi, pred.ScalingFactor,
	} {
		if !finite(v) {
			return nil, fmt.Errorf("serve: prediction produced a non-finite value (%v)", v)
		}
	}
	resp := &predictResponse{
		Selection:           key.Selection,
		Metric:              key.Metric,
		Model:               key.Model,
		NearestReference:    pred.NearestReference,
		FromSKU:             skuJSON{CPUs: pred.FromSKU.CPUs, MemoryGB: pred.FromSKU.MemoryGB},
		ToSKU:               skuJSON{CPUs: pred.ToSKU.CPUs, MemoryGB: pred.ToSKU.MemoryGB},
		ObservedThroughput:  pred.ObservedThroughput,
		PredictedThroughput: pred.PredictedThroughput,
		PredictedLo:         pred.PredictedLo,
		PredictedHi:         pred.PredictedHi,
		ScalingFactor:       pred.ScalingFactor,
	}
	for _, d := range pred.Distances {
		if !finite(d.Distance) {
			return nil, fmt.Errorf("serve: non-finite distance for %s", d.Workload)
		}
		resp.Distances = append(resp.Distances, distanceJSON{Workload: d.Workload, Distance: d.Distance})
	}
	for _, f := range pred.SelectedFeatures {
		resp.SelectedFeatures = append(resp.SelectedFeatures, f.String())
	}
	for _, d := range dropped {
		resp.Dropped = append(resp.Dropped, droppedJSON{ID: d.ID, Workload: d.Workload, Report: d.Report.String()})
	}
	return resp, nil
}
