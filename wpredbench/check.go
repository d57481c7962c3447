package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"wpred/internal/core"
	"wpred/internal/distance"
	"wpred/internal/drift"
	"wpred/internal/featsel"
	"wpred/internal/parallel"
	"wpred/internal/scalemodel"
	"wpred/internal/serve"
	"wpred/internal/telemetry"
)

// pipelineConfig resolves a registry key the way wpredd does, so an
// in-process pipeline trains identically to the server's.
func pipelineConfig(k serve.Key, seed uint64) (core.Config, error) {
	cfg := core.Config{Seed: seed}
	for _, s := range featsel.AllStrategies(seed) {
		if s.Name() == k.Selection {
			cfg.Selection = s
		}
	}
	for _, m := range append(distance.Norms(), distance.TimeSeriesMetrics()...) {
		if m.Name() == k.Metric {
			cfg.Metric = m
		}
	}
	var ok bool
	cfg.Strategy, ok = scalemodel.StrategyByName(k.Model)
	if cfg.Selection == nil || cfg.Metric == nil || !ok {
		return core.Config{}, fmt.Errorf("unknown registry key %s", k)
	}
	return cfg, nil
}

// expectKey identifies one distinct prediction input.
type expectKey struct {
	key serve.Key
	item
}

// expectation is the in-process answer for one input.
type expectation struct {
	nearest         string
	pred, lo, hi    float64
	fromCPUs, toCPU int
}

// oracle holds the in-process answers the server's responses must match
// bit for bit, and the pipelines that produced them.
type oracle struct {
	in        *inputs
	decoded   []*telemetry.Experiment // in.docs decoded as the server decodes them
	pipelines map[serve.Key]*core.Pipeline
	want      map[expectKey]expectation
	// trainings records when each pipeline was trained.
	trainings []interval
}

// interval is a start and end time.
type interval struct{ start, end time.Time }

// newOracle trains every key the schedule uses with core.TrainPipeline and
// predicts every distinct (key, target, to_sku) once with
// PredictWithReport, on targets decoded from the bytes the server gets.
// Pipelines train one at a time; the predictions, which share them
// read-only as wpredd's handlers do, run on the parallel worker pool.
func newOracle(in *inputs) (*oracle, error) {
	o := &oracle{in: in, pipelines: map[serve.Key]*core.Pipeline{}, want: map[expectKey]expectation{}}
	o.decoded = make([]*telemetry.Experiment, len(in.docs))
	for i, doc := range in.docs {
		e, err := telemetry.ReadExperiment(bytes.NewReader(doc))
		if err != nil {
			return nil, fmt.Errorf("decode target %d: %w", i, err)
		}
		o.decoded[i] = e
	}
	var distinct []expectKey
	seen := map[expectKey]bool{}
	for _, rs := range [][]request{in.settle, in.reqs} {
		for _, r := range rs {
			for _, it := range r.items {
				ek := expectKey{r.key, it}
				if seen[ek] {
					continue
				}
				seen[ek] = true
				if _, err := o.pipeline(r.key); err != nil {
					return nil, err
				}
				distinct = append(distinct, ek)
			}
		}
	}
	want, err := parallel.Map(len(distinct), func(i int) (expectation, error) {
		ek := distinct[i]
		pred, _, err := o.pipelines[ek.key].PredictWithReport([]*telemetry.Experiment{o.decoded[ek.target]}, skuOf(ek.toCPUs))
		if err != nil {
			return expectation{}, fmt.Errorf("in-process predict %s target %d to %d CPUs: %w", ek.key, ek.target, ek.toCPUs, err)
		}
		return expectation{
			nearest: pred.NearestReference,
			pred:    pred.PredictedThroughput, lo: pred.PredictedLo, hi: pred.PredictedHi,
			fromCPUs: pred.FromSKU.CPUs, toCPU: pred.ToSKU.CPUs,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ek := range distinct {
		o.want[ek] = want[i]
	}
	return o, nil
}

// skuOf is the SKU wpredd resolves a request's to_sku to (memory 8 GB/CPU).
func skuOf(cpus int) telemetry.SKU { return telemetry.SKU{CPUs: cpus, MemoryGB: 8 * cpus} }

func (o *oracle) pipeline(k serve.Key) (*core.Pipeline, error) {
	if p, ok := o.pipelines[k]; ok {
		return p, nil
	}
	cfg, err := pipelineConfig(k, o.in.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := core.TrainPipeline(cfg, o.in.refs)
	if err != nil {
		return nil, fmt.Errorf("in-process train %s: %w", k, err)
	}
	o.trainings = append(o.trainings, interval{t0, time.Now()})
	o.pipelines[k] = p
	return p, nil
}

// predictJSON is the part of a prediction response the check compares.
type predictJSON struct {
	Selection           string  `json:"selection"`
	Metric              string  `json:"metric"`
	Model               string  `json:"model"`
	NearestReference    string  `json:"nearest_reference"`
	PredictedThroughput float64 `json:"predicted_throughput"`
	PredictedLo         float64 `json:"predicted_lo"`
	PredictedHi         float64 `json:"predicted_hi"`
	FromSKU             struct {
		CPUs int `json:"cpus"`
	} `json:"from_sku"`
	ToSKU struct {
		CPUs int `json:"cpus"`
	} `json:"to_sku"`
}

// itemVerdict is the check's result for one prediction item.
type itemVerdict int

const (
	itemOK itemVerdict = iota
	// itemError is a batch item the server answered with an error.
	itemError
	// itemWrong is an answer that differs from the in-process one.
	itemWrong
)

// compare checks one prediction against the in-process answer.
func (o *oracle) compare(k serve.Key, it item, got *predictJSON) error {
	want, ok := o.want[expectKey{k, it}]
	if !ok {
		return fmt.Errorf("no in-process answer for %s target %d to %d CPUs", k, it.target, it.toCPUs)
	}
	switch {
	case got.Selection != k.Selection || got.Metric != k.Metric || got.Model != k.Model:
		return fmt.Errorf("answered for key %s|%s|%s, asked %s", got.Selection, got.Metric, got.Model, keyFlag(k))
	case got.NearestReference != want.nearest:
		return fmt.Errorf("nearest_reference %q, want %q", got.NearestReference, want.nearest)
	case !sameBits(got.PredictedThroughput, want.pred):
		return fmt.Errorf("predicted_throughput %v, want %v", got.PredictedThroughput, want.pred)
	case !sameBits(got.PredictedLo, want.lo):
		return fmt.Errorf("predicted_lo %v, want %v", got.PredictedLo, want.lo)
	case !sameBits(got.PredictedHi, want.hi):
		return fmt.Errorf("predicted_hi %v, want %v", got.PredictedHi, want.hi)
	case got.FromSKU.CPUs != want.fromCPUs || got.ToSKU.CPUs != want.toCPU:
		return fmt.Errorf("SKUs %d→%d, want %d→%d", got.FromSKU.CPUs, got.ToSKU.CPUs, want.fromCPUs, want.toCPU)
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// verifyPredict checks a 200 response body to a prediction request and
// returns one verdict per item, plus the first problem found.
func (o *oracle) verifyPredict(r *request, body []byte) ([]itemVerdict, []*predictJSON, error) {
	verdicts := make([]itemVerdict, len(r.items))
	preds := make([]*predictJSON, len(r.items))
	var first error
	note := func(i int, v itemVerdict, err error) {
		verdicts[i] = v
		if first == nil {
			first = fmt.Errorf("item %d: %w", i, err)
		}
	}
	if r.path == "/v1/predict" {
		var p predictJSON
		if err := strictUnmarshal(body, &p); err != nil {
			note(0, itemWrong, err)
			return verdicts, preds, first
		}
		preds[0] = &p
		if err := o.compare(r.key, r.items[0], &p); err != nil {
			note(0, itemWrong, err)
		}
		return verdicts, preds, first
	}
	var batch struct {
		Results []struct {
			Prediction *predictJSON `json:"prediction"`
			Error      string       `json:"error"`
		} `json:"results"`
	}
	if err := strictUnmarshal(body, &batch); err != nil || len(batch.Results) != len(r.items) {
		if err == nil {
			err = fmt.Errorf("%d results for %d items", len(batch.Results), len(r.items))
		}
		for i := range verdicts {
			note(i, itemWrong, err)
		}
		return verdicts, preds, first
	}
	for i, res := range batch.Results {
		switch {
		case res.Error != "":
			note(i, itemError, fmt.Errorf("server error: %s", res.Error))
		case res.Prediction == nil:
			note(i, itemWrong, fmt.Errorf("neither prediction nor error"))
		default:
			preds[i] = res.Prediction
			if err := o.compare(r.key, r.items[i], res.Prediction); err != nil {
				note(i, itemWrong, err)
			}
		}
	}
	return verdicts, preds, first
}

// strictUnmarshal decodes one JSON value and rejects trailing data.
func strictUnmarshal(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode response: trailing data")
	}
	return nil
}

// observeJSON is the /v1/observe response.
type observeJSON struct {
	Status     string `json:"status"`
	Kind       string `json:"kind,omitempty"`
	OnsetIndex int    `json:"onset_index,omitempty"`
	DelayObs   int    `json:"delay_obs,omitempty"`
	Refit      bool   `json:"refit,omitempty"`
}

// driftOracle replays observations through an in-process tracker with the
// server's configuration, in the order the server received them.
type driftOracle struct{ tr *drift.Tracker }

func newDriftOracle(seed uint64) *driftOracle {
	return &driftOracle{tr: drift.NewTracker(driftConfig(seed))}
}

// next returns the response the server must give to r's observation.
func (d *driftOracle) next(r *request) observeJSON {
	ev, ok := d.tr.Observe(r.key.String(), drift.Observation{Tick: r.obs.tick, Observed: r.obs.observed, Predicted: r.obs.predicted})
	if !ok {
		return observeJSON{Status: "ok"}
	}
	return observeJSON{
		Status: "drift", Kind: string(ev.Kind), OnsetIndex: ev.OnsetIndex, DelayObs: ev.DelayObs,
		Refit: ev.Kind != drift.Cyclic,
	}
}

// verifyObserve checks one observe response body against the oracle.
func verifyObserve(body []byte, want observeJSON) error {
	var got observeJSON
	if err := strictUnmarshal(body, &got); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("observe answered %+v, want %+v", got, want)
	}
	return nil
}
