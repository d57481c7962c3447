package serve

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/parallel"
	"wpred/internal/scalemodel"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// FuzzDecodePredictRequest asserts the /v1/predict and /v1/predict/batch
// decoders are total and that nothing they accept can crash a prediction:
// arbitrary bytes either produce fully validated requests or an error —
// never a panic — every accepted request satisfies the documented
// invariants (resolvable key, in-range SKU, bounded non-empty target
// list, finite scalars), and every accepted request then runs through
// predictOne on one small server trained once. Its key is overridden with
// that server's warm key, so no input starts a fit; a recovered panic
// (*parallel.PanicError) fails the target. Every input also runs through
// the scanner and encoding/json directly (checkScannedRequest); the
// fallback seeds wrap documents the scanner declines. Seeds live in
// testdata/fuzz alongside the telemetry decoder's corpus.
func FuzzDecodePredictRequest(f *testing.F) {
	valid := string(fuzzValidRequest(f))
	f.Add(valid)
	f.Add(strings.Replace(valid, ":", ",", 5)) // mangled syntax
	f.Add(valid + valid)                       // trailing data
	f.Add(valid[:len(valid)/2])                // truncated
	f.Add("")
	f.Add("null")
	f.Add("{}")
	f.Add(`{"to_sku":{"cpus":4}}`)                                                // no targets
	f.Add(`{"to_sku":{"cpus":0},"target":[{}]}`)                                  // zero CPUs
	f.Add(`{"to_sku":{"cpus":1000000},"target":[{}]}`)                            // absurd SKU
	f.Add(`{"to_sku":{"cpus":4,"memory_gb":-1},"target":[{}]}`)                   // negative memory
	f.Add(`{"to_sku":{"cpus":4},"target":[{"throughput":1e999}]}`)                // ±Inf literal
	f.Add(`{"to_sku":{"cpus":4},"target":[{"throughput":"NaN"}]}`)                // NaN as string
	f.Add(`{"selection":"Oracle","to_sku":{"cpus":4},"target":[{}]}`)             // unknown selection
	f.Add(`{"metric":"L9,9","to_sku":{"cpus":4},"target":[{}]}`)                  // unknown metric
	f.Add(`{"model":"Magic","to_sku":{"cpus":4},"target":[{}]}`)                  // unknown model
	f.Add(`{"bogus":true,"to_sku":{"cpus":4},"target":[{}]}`)                     // unknown field
	f.Add(`{"to_sku":{"cpus":4},"target":[` + strings.Repeat("{},", 70) + `{}]}`) // too many targets
	f.Add(`{"to_sku":{"cpus":4},"target":[{"resources":{"bogus":[1]}}]}`)         // unknown feature
	f.Add(strings.Repeat(`[`, 200))
	f.Add(strings.Repeat(`{"target":`, 50))
	f.Add(`{"to_sku":{"cpus":4},"target":[{"workload":"W","bogus":1}]}`)         // unknown field inside a target
	f.Add(`{"to_sku":{"cpus":4},"target":[{"txn_stats":[{"Name":"q","x":1}]}]}`) // unknown field deeper inside
	f.Add(`{"to_sku":{"cpus":4},"target":[null]}`)                               // null target element
	f.Add(`{"to_sku":{"cpus":4},"target":["W"]}`)                                // string target element
	f.Add(`{"requests":[` + valid + `,null]}`)                                   // batch body
	f.Add(`{"requests":[` + valid + `],"bogus":1}`)                              // batch with an unknown field
	predictable := string(fuzzPredictableRequest(f))
	f.Add(predictable)
	f.Add(`{"requests":[` + predictable + `,` + predictable + `]}`)
	f.Add(valid + "]]x")                                                // trailing close brackets
	f.Add(valid + "}")                                                  // trailing close brace
	f.Add(`{"Selection":"Variance","TO_SKU":{"CPUS":4},"target":[{}]}`) // case-folded keys
	f.Add(`{"to_sku":{"cpus":4},"target":[{"workload":"A","cpus":2}],"target":[{"workload":"B"}]}`)
	f.Add(`{"requests":[{"to_sku":{"cpus":4},"target":[{}]}],"requests":[{"to_sku":{"cpus":8}}]}`)
	f.Add(`{"selection":null,"to_sku":{"cpus":4,"memory_gb":null},"target":[{}]}`)
	f.Add(`{"to_sku":{"cpus":4e0},"target":[{}]}`)
	f.Add(`{"to_sku":{"cpus":-0},"target":[{}]}`)
	f.Add(`{"to_sku":{"cpus":4},"target":[{"throughput":.5}]}`) // strconv parses it, JSON forbids it
	for _, ft := range fallbackTargets {
		f.Add(`{"to_sku":{"cpus":4},"target":[` + ft.doc + `]}`)
	}

	s := newTestServer(f, Config{})
	if err := s.Warmup(cheapKey()); err != nil {
		f.Fatal(err)
	}
	if req, err := decodePredictRequest([]byte(predictable)); err != nil {
		f.Fatal(err)
	} else if _, code, err := s.predictOne(req); code != http.StatusOK {
		f.Fatalf("the predictable seed answered %d: %v", code, err)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkScannedRequest(t, []byte(data))
		var accepted []*PredictRequest
		req, err := decodePredictRequest([]byte(data))
		if err == nil {
			accepted = append(accepted, req)
		} else if req != nil {
			t.Fatal("decoder returned both a request and an error")
		}
		reqs, err := decodeBatchRequest([]byte(data))
		if err == nil {
			accepted = append(accepted, reqs...)
		} else if reqs != nil {
			t.Fatal("batch decoder returned both requests and an error")
		}
		for _, req := range accepted {
			checkAccepted(t, req)
			req.Key = cheapKey()
			var pe *parallel.PanicError
			if _, _, err := s.predictOne(req); errors.As(err, &pe) {
				t.Fatalf("predicting an accepted request panicked: %v\n%s", pe.Value, pe.Stack)
			}
		}
	})
}

// fallbackTargets are target documents the scanner declines, so
// encoding/json decides: escapes, non-ASCII, case-folded, duplicate and
// unknown keys, nulls, a float in an int field, overflow, negative zero
// next to an unknown field, and a wrong series count. lib is the fault
// ReadExperiment reports and wire the fault both request decoders report,
// "" where they accept the document; they differ only on the unknown
// field, which the library reader ignores.
var fallbackTargets = []struct{ doc, lib, wire string }{
	{doc: `{"workload":"W\u00e9","cpus":2}`},
	{doc: `{"workload":"Wé","cpus":2}`},
	{doc: `{"Workload":"W","CPUS":2}`},
	{doc: `{"workload":"W","txn_stats":[{"Name":"a","Weight":1}],"txn_stats":[{"Name":"b"}]}`},
	{doc: `{"workload":"W","resources":null,"plans":null}`},
	{`{"workload":"W","cpus":1e1}`, "cannot unmarshal number 1e1", "cannot unmarshal number 1e1"},
	{`{"workload":"W","throughput":1e999}`, "cannot unmarshal number 1e999", "cannot unmarshal number 1e999"},
	{`{"workload":"W","throughput":-0,"bogus":1}`, "", `unknown field "bogus"`},
	{`{"resources":{"CPU_UTILIZATION":[1,2],"CPU_EFFECTIVE":[1]}}`, "2 resource series, want 7", "2 resource series, want 7"},
}

// checkScannedRequest fails t unless everything the scanner accepts in
// data, as a single or a batch body, decodeStrict also accepts, with the
// same envelope, reflect.DeepEqual targets and the same validation result.
func checkScannedRequest(t *testing.T, data []byte) {
	t.Helper()
	var fast predictRequest
	s := telemetry.NewScanner(data)
	if scanPredict(s, &fast); s.End() {
		var slow predictRequest
		if err := decodeStrict(data, &slow, "request"); err != nil {
			t.Fatalf("the scanner accepted a request decodeStrict rejects: %v", err)
		}
		sameRequest(t, &fast, &slow)
	}
	var fastBatch batchRequest
	s = telemetry.NewScanner(data)
	if scanBatch(s, &fastBatch); s.End() {
		var slow batchRequest
		if err := decodeStrict(data, &slow, "batch"); err != nil {
			t.Fatalf("the scanner accepted a batch decodeStrict rejects: %v", err)
		}
		if len(fastBatch.Requests) != len(slow.Requests) {
			t.Fatalf("the scanner read %d batch items, decodeStrict %d", len(fastBatch.Requests), len(slow.Requests))
		}
		for i := range slow.Requests {
			sameRequest(t, &fastBatch.Requests[i], &slow.Requests[i])
		}
		fr, ferr := validateBatchRequest(&fastBatch)
		sr, serr := validateBatchRequest(&slow)
		if fmt.Sprint(ferr) != fmt.Sprint(serr) || !reflect.DeepEqual(fr, sr) {
			t.Fatalf("batch validation differs: scanner %v, decodeStrict %v", ferr, serr)
		}
	}
}

// sameRequest fails t unless the scanner's request fast and decodeStrict's
// slow hold the same envelope and targets and validate alike.
func sameRequest(t *testing.T, fast, slow *predictRequest) {
	t.Helper()
	if fast.Selection != slow.Selection || fast.Metric != slow.Metric || fast.Model != slow.Model || fast.ToSKU != slow.ToSKU {
		t.Fatalf("envelopes differ: scanner %+v, decodeStrict %+v", fast, slow)
	}
	if fast.Target != nil || len(fast.scanned) != len(slow.Target) {
		t.Fatalf("the scanner read %d targets, decodeStrict %d", len(fast.scanned), len(slow.Target))
	}
	for i := range slow.Target {
		want, err := slow.target(i)
		if err != nil {
			t.Fatalf("the scanner accepted target %d, which Experiment rejects: %v", i, err)
		}
		if !reflect.DeepEqual(fast.scanned[i], want) {
			t.Fatalf("target %d differs:\n got %+v\nwant %+v", i, fast.scanned[i], want)
		}
	}
	fr, ferr := validatePredictRequest(fast)
	sr, serr := validatePredictRequest(slow)
	if fmt.Sprint(ferr) != fmt.Sprint(serr) || !reflect.DeepEqual(fr, sr) {
		t.Fatalf("validation differs: scanner %v, decodeStrict %v", ferr, serr)
	}
}

// checkAccepted fails t unless req satisfies every invariant the decoder
// promises for an accepted request.
func checkAccepted(t *testing.T, req *PredictRequest) {
	t.Helper()
	if req == nil {
		t.Fatal("decoder accepted a nil request")
	}
	if _, ok := selectionByName(req.Key.Selection, 0); !ok {
		t.Fatalf("accepted unknown selection %q", req.Key.Selection)
	}
	if _, ok := metricByName(req.Key.Metric); !ok {
		t.Fatalf("accepted unknown metric %q", req.Key.Metric)
	}
	if _, ok := scalemodel.StrategyByName(req.Key.Model); !ok {
		t.Fatalf("accepted unknown model %q", req.Key.Model)
	}
	if req.ToSKU.CPUs < 1 || req.ToSKU.CPUs > maxSKUCPUs {
		t.Fatalf("accepted out-of-range to_sku.cpus %d", req.ToSKU.CPUs)
	}
	if req.ToSKU.MemoryGB < 1 {
		t.Fatalf("accepted non-positive memory %d", req.ToSKU.MemoryGB)
	}
	if len(req.Target) == 0 || len(req.Target) > MaxTargetsPerItem {
		t.Fatalf("accepted %d targets", len(req.Target))
	}
	for i, e := range req.Target {
		if e == nil {
			t.Fatalf("accepted nil target %d", i)
		}
		if !finite(e.Throughput) || !finite(e.MeanLatMS) {
			t.Fatalf("accepted non-finite scalars in target %d", i)
		}
	}
}

// fuzzValidRequest builds a well-formed request body without dragging the
// simulator into the fuzz harness: a minimal plan-only experiment.
func fuzzValidRequest(f *testing.F) []byte {
	f.Helper()
	return []byte(`{
  "selection": "Variance",
  "metric": "L2,1",
  "model": "Regression",
  "to_sku": {"cpus": 8, "memory_gb": 64},
  "target": [
    {"workload": "W", "cpus": 2, "memory_gb": 16, "terminals": 4, "run": 1, "throughput": 100.5, "mean_latency_ms": 9.5}
  ]
}`)
}

// fuzzPredictableRequest builds a request the fuzz server answers 200: a
// short simulated YCSB run on the suite's 2-CPU SKU, predicted to 4 CPUs,
// so mutations start from a body that reaches every prediction stage.
func fuzzPredictableRequest(f *testing.F) []byte {
	f.Helper()
	ycsb, err := bench.ByName("YCSB")
	if err != nil {
		f.Fatal(err)
	}
	e := simdb.Simulate(ycsb, simdb.Config{
		SKU: telemetry.SKU{CPUs: 2, MemoryGB: 16}, Terminals: 4, Ticks: 30, PlanObsPerQuery: 3,
	}, telemetry.NewSource(42))
	return marshalPredict(f, []*telemetry.Experiment{e}, 4)
}
