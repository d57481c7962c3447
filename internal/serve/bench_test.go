package serve

import (
	"net/http"
	"sync"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/telemetry"
)

// servedBodies is the shared fixture of the serve benchmarks: a server
// with a warm key and the request bodies that hit it.
type servedBodies struct {
	s       *Server
	singles [][]byte // one single-target /v1/predict body per (target, to_sku)
	batches [][]byte // /v1/predict/batch bodies of eight such items
}

var (
	servedOnce sync.Once
	served     servedBodies
)

// serveBenchBodies builds the serve benchmarks' fixture once: a server on
// wpredd's default reference library (the five standard workloads on
// 2/4/8/16 CPUs, three runs each, 360 ticks) and wpredbenchBodies' request
// bodies. Every body is sent once before timing, so the cheap test key is
// trained and its scaling memo is warm: a timed request is a registry hit,
// mostly request decoding.
func serveBenchBodies(b *testing.B) *servedBodies {
	b.Helper()
	servedOnce.Do(func() {
		refs := bench.GenerateSuite(bench.Standard(), referenceSKUs(), []int{8}, 3, telemetry.NewSource(42))
		served.s = New(Config{Refs: refs, Seed: 42})
		served.singles, served.batches = wpredbenchBodies(b)
		for _, body := range served.singles {
			servePost(b, "/v1/predict", body)
		}
	})
	return &served
}

// referenceSKUs are wpredd's default simulated SKUs: 2/4/8/16 CPUs at
// 8 GB per CPU.
func referenceSKUs() []telemetry.SKU {
	var skus []telemetry.SKU
	for _, c := range []int{2, 4, 8, 16} {
		skus = append(skus, telemetry.SKU{CPUs: c, MemoryGB: 8 * c})
	}
	return skus
}

// wpredbenchBodies renders request bodies shaped like wpredbench's:
// targets of the five standard workloads on 2 and 4 CPUs, each predicted
// to 8 and 16 CPUs as one single-target /v1/predict body (about 121 KB),
// and two passes over those bodies as /v1/predict/batch bodies of eight
// items.
func wpredbenchBodies(tb testing.TB) (singles, batches [][]byte) {
	tb.Helper()
	targets := bench.GenerateSuite(bench.Standard(), referenceSKUs()[:2], []int{8}, 1, telemetry.NewSource(42).Child("targets"))
	for _, e := range targets {
		for _, to := range []int{8, 16} {
			singles = append(singles, marshalPredict(tb, []*telemetry.Experiment{e}, to))
		}
	}
	n := len(singles)
	for i := 0; i < 2*n; i += 8 {
		var batch batchWire
		for j := i; j < i+8; j++ {
			batch.Requests = append(batch.Requests, singles[j%n])
		}
		batches = append(batches, mustMarshal(tb, batch))
	}
	return singles, batches
}

// servePost drives one request through the handler in process and fails
// the benchmark unless it answers 200.
func servePost(b *testing.B, path string, body []byte) {
	if code, out := serveLocal(served.s, path, body); code != http.StatusOK {
		b.Fatalf("%s answered %d: %s", path, code, out)
	}
}

// BenchmarkServePredictSingle times one single-target /v1/predict hit on
// a warm key: body decode, validation, registry hit, prediction with a
// warm scaling memo, and response encoding.
func BenchmarkServePredictSingle(b *testing.B) {
	sb := serveBenchBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePost(b, "/v1/predict", sb.singles[i%len(sb.singles)])
	}
}

// BenchmarkServePredictBatch8 times one /v1/predict/batch call of eight
// single-target items on the same warm key.
func BenchmarkServePredictBatch8(b *testing.B) {
	sb := serveBenchBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePost(b, "/v1/predict/batch", sb.batches[i%len(sb.batches)])
	}
}
