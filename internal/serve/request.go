// Request decoding and response rendering for the wpredd prediction
// service. The decoder is total: any byte stream either yields a fully
// validated request or a descriptive error — never a panic — which the
// FuzzDecodePredictRequest corpus locks in. Responses are rendered from
// explicit structs with slices in deterministic order (never bare maps
// with float keys or iteration-order dependence), so identical requests
// produce byte-identical bodies regardless of concurrency or cache state.
package serve

import (
	"bytes"
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

// Request-size guards. readBody additionally caps the raw body at
// Config.MaxBodyBytes; these bound the decoded shape.
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
// workload's telemetry in the wlgen/library experiment format. encoding/json
// decodes targets into Target; the telemetry scanner converts them as it
// reads and leaves them in scanned instead.
type predictRequest struct {
	Selection string                     `json:"selection,omitempty"`
	Metric    string                     `json:"metric,omitempty"`
	Model     string                     `json:"model,omitempty"`
	ToSKU     skuJSON                    `json:"to_sku"`
	Target    []telemetry.ExperimentJSON `json:"target"`

	scanned []*telemetry.Experiment
}

// batchRequest is the wire form of /v1/predict/batch.
type batchRequest struct {
	Requests []predictRequest `json:"requests"`
}

// The JSON names of predictRequest's, skuJSON's and batchRequest's fields,
// in the order scanPredict's and scanBatch's switches use.
var (
	predictFields = []string{"selection", "metric", "model", "to_sku", "target"}
	skuFields     = []string{"cpus", "memory_gb"}
	batchFields   = []string{"requests"}
)

// scanPredict reads a predictRequest with the telemetry scanner.
func scanPredict(s *telemetry.Scanner, raw *predictRequest) {
	s.Object(predictFields, func(i int) {
		switch i {
		case 0:
			raw.Selection = s.Str()
		case 1:
			raw.Metric = s.Str()
		case 2:
			raw.Model = s.Str()
		case 3:
			s.Object(skuFields, func(i int) {
				if i == 0 {
					raw.ToSKU.CPUs = s.Int()
				} else {
					raw.ToSKU.MemoryGB = s.Int()
				}
			})
		case 4:
			s.Array(func() { raw.scanned = append(raw.scanned, s.Experiment()) })
		}
	})
}

// scanBatch reads a batchRequest with the telemetry scanner.
func scanBatch(s *telemetry.Scanner, raw *batchRequest) {
	s.Object(batchFields, func(int) {
		s.Array(func() {
			raw.Requests = append(raw.Requests, predictRequest{})
			scanPredict(s, &raw.Requests[len(raw.Requests)-1])
		})
	})
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

// decodePredictRequest decodes and validates one prediction request. Every
// failure is a client error: malformed JSON, unknown fields (target
// documents included), unknown algorithm or feature names, out-of-range
// SKUs, and empty or oversized target lists are all rejected with
// descriptive messages.
func decodePredictRequest(body []byte) (*PredictRequest, error) {
	return decodeBody(body, "request", scanPredict, validatePredictRequest)
}

// decodeBody decodes a request body with the telemetry scanner, then
// validates it. When the scanner declines, decodeStrict decodes the same
// bytes and the same validation decides, so every decode error comes from
// encoding/json; a request the scanner reads validates exactly as
// decodeStrict's reading of it would (FuzzDecodePredictRequest).
func decodeBody[W, R any](body []byte, what string, scan func(*telemetry.Scanner, *W), validate func(*W) (R, error)) (R, error) {
	var fast W
	s := telemetry.NewScanner(body)
	if scan(s, &fast); s.End() {
		return validate(&fast)
	}
	var raw W
	if err := decodeStrict(body, &raw, what); err != nil {
		var zero R
		return zero, err
	}
	return validate(&raw)
}

// maxBodyPrealloc caps the buffer readBody allocates before any of the
// body has arrived. It holds the bodies clients send (wpredbench-shaped
// singles are 59 to 301 KB, batches of eight 0.5 to 1.5 MB) in one
// allocation, and it is all a client that declares a larger
// Content-Length and then stalls can make the server hold.
const maxBodyPrealloc = 2 << 20

// readBody reads a request body whole, through http.MaxBytesReader. When
// the client sent Content-Length, the buffer is sized from it up to
// maxBodyPrealloc; past that, and for a body of unknown length, it grows
// only as bytes arrive, to at most twice what was read. When the read
// fails it answers the request itself (413 for a body over
// Config.MaxBodyBytes, 400 otherwise) and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	limit := s.cfg.MaxBodyBytes
	size, want := int64(512), limit+1 // want: the final size, +1 for the read that sees EOF
	if r.ContentLength >= 0 {
		want = min(r.ContentLength, limit) + 1
		size = min(want, maxBodyPrealloc)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		var tooLarge *http.MaxBytesError
		switch {
		case err == io.EOF:
			return buf, true
		case errors.As(err, &tooLarge):
			httpError(w, http.StatusRequestEntityTooLarge, "serve: request body too large")
			return nil, false
		case err != nil:
			httpError(w, http.StatusBadRequest, fmt.Sprintf("serve: read request: %v", err))
			return nil, false
		}
		if len(buf) == cap(buf) {
			// The body never passes limit bytes, so want > len(buf) here.
			buf = append(make([]byte, 0, min(2*int64(len(buf)), want)), buf...)
		}
	}
}

// decodeStrict decodes one JSON value from body into v with encoding/json.
// Unknown fields at any depth and anything but whitespace after the value
// (what names it in the error) are rejected.
func decodeStrict(body []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decode request: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
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

// validatePredictRequest checks a decoded request in a fixed order (key,
// SKU, target count, then each target's conversion and finiteness), on
// either decoder's result, so both report the same first fault.
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

	n := len(raw.Target) + len(raw.scanned) // one of them is empty
	if n == 0 {
		return nil, errors.New("serve: request has no target experiments")
	}
	if n > MaxTargetsPerItem {
		return nil, fmt.Errorf("serve: %d target experiments exceed the per-request cap of %d", n, MaxTargetsPerItem)
	}
	req.Target = make([]*telemetry.Experiment, n)
	for i := range req.Target {
		e, err := raw.target(i)
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

// target returns the i-th target experiment, converting encoding/json's
// wire form; the scanner's targets are converted already.
func (raw *predictRequest) target(i int) (*telemetry.Experiment, error) {
	if raw.scanned != nil {
		return raw.scanned[i], nil
	}
	return raw.Target[i].Experiment()
}

// decodeBatchRequest decodes /v1/predict/batch: a "requests" array whose
// items each validate exactly like a single prediction request.
func decodeBatchRequest(body []byte) ([]*PredictRequest, error) {
	return decodeBody(body, "batch", scanBatch, validateBatchRequest)
}

func validateBatchRequest(raw *batchRequest) ([]*PredictRequest, error) {
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
