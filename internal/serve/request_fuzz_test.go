package serve

import (
	"strings"
	"testing"

	"wpred/internal/scalemodel"
)

// FuzzDecodePredictRequest asserts the /v1/predict decoder is total:
// arbitrary bytes either produce a fully validated request or an error —
// never a panic — and every accepted request satisfies the documented
// invariants (resolvable key, in-range SKU, bounded non-empty target
// list, finite scalars). Seeds live in testdata/fuzz alongside the
// telemetry decoder's corpus.
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

	f.Fuzz(func(t *testing.T, data string) {
		req, err := decodePredictRequest(strings.NewReader(data))
		if err != nil {
			if req != nil {
				t.Fatal("decoder returned both a request and an error")
			}
			return
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
	})
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
