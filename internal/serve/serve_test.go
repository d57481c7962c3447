package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wpred/internal/bench"
	"wpred/internal/parallel"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// Cheap test configuration: variance-threshold selection and a linear
// scaling model keep each registry fit fast enough for the race detector,
// while still running the full train/predict path.
const (
	testSelection = "Variance"
	testMetric    = "L2,1"
	testModel     = "Regression"
)

var (
	refsOnce sync.Once
	testRefs []*telemetry.Experiment
	testTgts []*telemetry.Experiment
)

// suite simulates a small reference suite (three benchmarks on 2- and
// 4-CPU SKUs) and a YCSB target profiled on the 2-CPU SKU, shared across
// tests — generation is deterministic and the suite is read-only.
func suite(t testing.TB) (refs, targets []*telemetry.Experiment) {
	t.Helper()
	refsOnce.Do(func() {
		skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
		src := telemetry.NewSource(42)
		testRefs = bench.GenerateSuite(bench.Standard()[:3], skus, []int{4}, 2, src)
		ycsb, err := bench.ByName("YCSB")
		if err != nil {
			panic(err)
		}
		testTgts = bench.GenerateSuite([]*simdb.Workload{ycsb}, skus[:1], []int{4}, 2, src)
	})
	if len(testRefs) == 0 || len(testTgts) == 0 {
		t.Fatal("test suite generation produced no experiments")
	}
	return testRefs, testTgts
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	refs, _ := suite(t)
	if cfg.Refs == nil {
		cfg.Refs = refs
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return New(cfg)
}

// predictWire and batchWire are request bodies as clients build them:
// target documents and batch items spliced in as pre-serialized JSON, the
// way wpredbench and wpredload send them. Tests render their bodies with
// these, so the bytes they send do not depend on what the server decodes
// into.
type predictWire struct {
	Selection string            `json:"selection,omitempty"`
	Metric    string            `json:"metric,omitempty"`
	Model     string            `json:"model,omitempty"`
	ToSKU     skuJSON           `json:"to_sku"`
	Target    []json.RawMessage `json:"target"`
}

type batchWire struct {
	Requests []json.RawMessage `json:"requests"`
}

// predictBody renders a /v1/predict request for the shared target.
func predictBody(t *testing.T, toCPUs int) []byte {
	t.Helper()
	_, targets := suite(t)
	return marshalPredict(t, targets, toCPUs)
}

func marshalPredict(t testing.TB, targets []*telemetry.Experiment, toCPUs int) []byte {
	t.Helper()
	raw := predictWire{
		Selection: testSelection,
		Metric:    testMetric,
		Model:     testModel,
		ToSKU:     skuJSON{CPUs: toCPUs},
	}
	for _, e := range targets {
		var buf bytes.Buffer
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			t.Fatal(err)
		}
		raw.Target = append(raw.Target, json.RawMessage(buf.Bytes()))
	}
	body, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestPredictRoundTrip exercises the single-prediction path end to end:
// decode, registry fit, predict, and a fully populated deterministic
// response body.
func TestPredictRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := post(t, ts.URL+"/v1/predict", predictBody(t, 4))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp predictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("invalid response JSON: %v\n%s", err, body)
	}
	if resp.Selection != testSelection || resp.Metric != testMetric || resp.Model != testModel {
		t.Errorf("response key = %s/%s/%s, want %s/%s/%s",
			resp.Selection, resp.Metric, resp.Model, testSelection, testMetric, testModel)
	}
	if resp.NearestReference == "" {
		t.Error("nearest_reference empty")
	}
	if resp.PredictedThroughput <= 0 {
		t.Errorf("predicted_throughput = %v, want > 0", resp.PredictedThroughput)
	}
	if resp.ToSKU.CPUs != 4 || resp.ToSKU.MemoryGB != 32 {
		t.Errorf("to_sku = %+v, want 4 CPUs / 32 GB (memory defaulted)", resp.ToSKU)
	}
	if len(resp.Distances) == 0 {
		t.Fatal("no reference distances")
	}
	for i := 1; i < len(resp.Distances); i++ {
		if resp.Distances[i].Distance < resp.Distances[i-1].Distance {
			t.Errorf("distances not ascending at %d: %v", i, resp.Distances)
		}
	}
	if resp.Distances[0].Workload != resp.NearestReference {
		t.Errorf("first distance %q != nearest reference %q", resp.Distances[0].Workload, resp.NearestReference)
	}
	if len(resp.SelectedFeatures) == 0 {
		t.Error("no selected features")
	}
}

// TestResponsesByteIdenticalAcrossCacheAndConcurrency is the serving
// layer's determinism bar: the same request body yields byte-identical
// responses whether the registry is cold or warm, whether the request ran
// alone or raced seven siblings onto a cold key, and whether the parallel
// engine uses one worker or eight.
func TestResponsesByteIdenticalAcrossCacheAndConcurrency(t *testing.T) {
	body := predictBody(t, 4)

	// Baseline: cold fit at one worker.
	prevWorkers := parallel.SetMaxWorkers(1)
	defer parallel.SetMaxWorkers(prevWorkers)
	s1 := newTestServer(t, Config{})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	code, cold := post(t, ts1.URL+"/v1/predict", body)
	if code != http.StatusOK {
		t.Fatalf("cold request failed: %d %s", code, cold)
	}
	_, warm := post(t, ts1.URL+"/v1/predict", body)
	if !bytes.Equal(cold, warm) {
		t.Errorf("cache-cold and cache-warm responses differ:\n%s\nvs\n%s", cold, warm)
	}

	// Warmed-up fresh server at eight workers, requests racing on a cold
	// non-default key (the test key is not the warmup default).
	parallel.SetMaxWorkers(8)
	s2 := newTestServer(t, Config{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	const n = 8
	results := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts2.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				results[i] = []byte("error: " + err.Error())
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				b = append([]byte(fmt.Sprintf("status %d: ", resp.StatusCode)), b...)
			}
			results[i] = b
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !bytes.Equal(r, cold) {
			t.Fatalf("concurrent response %d differs from 1-worker cold response:\n%s\nvs\n%s", i, r, cold)
		}
	}
	if st := s2.RegistryStats(); st.Fits != 1 {
		t.Errorf("8 racing requests on one cold key trained %d pipelines, want 1 (single-flight)", st.Fits)
	}
}

// TestBatchRoundTripDeterministicAcrossWorkers checks the micro-batch
// path: results come back in input order, per-item errors do not fail
// siblings, an item's prediction matches the single endpoint's, and the
// whole batch body is byte-identical at one and eight workers.
func TestBatchRoundTripDeterministicAcrossWorkers(t *testing.T) {
	body := predictBody(t, 4)
	bad := bytes.Replace(predictBody(t, 4), []byte(`"cpus":4`), []byte(`"cpus":16`), 1)
	batch, err := json.Marshal(batchWire{Requests: []json.RawMessage{body, bad, body}})
	if err != nil {
		t.Fatal(err)
	}

	runBatch := func(workers int) []byte {
		prev := parallel.SetMaxWorkers(workers)
		defer parallel.SetMaxWorkers(prev)
		s := newTestServer(t, Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		code, out := post(t, ts.URL+"/v1/predict/batch", batch)
		if code != http.StatusOK {
			t.Fatalf("batch at %d workers: status %d: %s", workers, code, out)
		}
		return out
	}

	serial := runBatch(1)
	wide := runBatch(8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("batch response differs between 1 and 8 workers:\n%s\nvs\n%s", serial, wide)
	}

	var decoded struct {
		Results []struct {
			Prediction *predictResponse `json:"prediction"`
			Error      string           `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(serial, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(decoded.Results))
	}
	if decoded.Results[0].Prediction == nil || decoded.Results[2].Prediction == nil {
		t.Fatalf("items 0 and 2 should succeed: %s", serial)
	}
	// Item 1 extrapolates to an unprofiled 16-CPU SKU with a pairwise
	// model, which cannot fit — its failure must be isolated.
	if decoded.Results[1].Error == "" {
		t.Error("item 1 (unprofiled SKU) should report an error")
	}

	// A batch item's prediction equals the single endpoint's.
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, single := post(t, ts.URL+"/v1/predict", body)
	one, err := json.Marshal(decoded.Results[0].Prediction)
	if err != nil {
		t.Fatal(err)
	}
	var viaSingle predictResponse
	if err := json.Unmarshal(single, &viaSingle); err != nil {
		t.Fatal(err)
	}
	viaSingleJSON, _ := json.Marshal(&viaSingle)
	if !bytes.Equal(one, viaSingleJSON) {
		t.Errorf("batch item prediction differs from single endpoint:\n%s\nvs\n%s", one, viaSingleJSON)
	}
}

// TestBatchOverCapacityReturns413 sends a batch larger than the whole
// admission queue. tryAcquire can never grant more slots than the queue
// holds, so a 429 + Retry-After here would livelock a compliant client
// into retrying a request that cannot ever succeed (the bug this test
// regression-locks); the server must answer a non-retryable 413 telling
// the client to split the batch. Then it verifies the queue was not
// leaked: a small request still succeeds.
func TestBatchOverCapacityReturns413(t *testing.T) {
	s := newTestServer(t, Config{QueueSlots: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := predictBody(t, 4)
	batch, err := json.Marshal(batchWire{Requests: []json.RawMessage{body, body, body}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict/batch", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("3-item batch against 2 queue slots: status %d, want non-retryable 413: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("413 response carries Retry-After; an unservable batch must not invite retries")
	}
	if !strings.Contains(string(b), "queue capacity") {
		t.Errorf("413 body should name the queue capacity so clients know to split: %s", b)
	}

	if code, out := post(t, ts.URL+"/v1/predict", body); code != http.StatusOK {
		t.Fatalf("single request after rejected batch: status %d (queue slots leaked?): %s", code, out)
	}
}

// TestBatchQueueBusyReturns429 sends a batch that fits the queue's total
// capacity but not its current free space: that rejection is transient, so
// it must keep the retryable 429 + Retry-After shape.
func TestBatchQueueBusyReturns429(t *testing.T) {
	s := newTestServer(t, Config{QueueSlots: 2})
	admitted := make(chan struct{})
	unblock := make(chan struct{})
	var hookOnce sync.Once
	s.testHookAdmitted = func() {
		hookOnce.Do(func() {
			close(admitted)
			<-unblock
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := predictBody(t, 4)
	errc := make(chan error, 1)
	go func() {
		code, out := post(t, ts.URL+"/v1/predict", body)
		if code != http.StatusOK {
			errc <- fmt.Errorf("held request: status %d: %s", code, out)
			return
		}
		errc <- nil
	}()
	<-admitted // one of two slots held in flight

	batch, err := json.Marshal(batchWire{Requests: []json.RawMessage{body, body}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict/batch", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("2-item batch with 1 of 2 slots free: status %d, want 429: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	close(unblock)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestInFlightSaturationReturns429 saturates the queue with a genuinely
// in-flight request (held by the test hook) and expects the next request
// to shed with 429 rather than queue.
func TestInFlightSaturationReturns429(t *testing.T) {
	s := newTestServer(t, Config{QueueSlots: 1})
	admitted := make(chan struct{})
	unblock := make(chan struct{})
	var hookOnce sync.Once
	s.testHookAdmitted = func() {
		hookOnce.Do(func() {
			close(admitted)
			<-unblock
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := predictBody(t, 4)
	errc := make(chan error, 1)
	go func() {
		code, out := post(t, ts.URL+"/v1/predict", body)
		if code != http.StatusOK {
			errc <- fmt.Errorf("held request: status %d: %s", code, out)
			return
		}
		errc <- nil
	}()
	<-admitted

	code, _ := post(t, ts.URL+"/v1/predict", body)
	if code != http.StatusTooManyRequests {
		t.Errorf("request while queue saturated: status %d, want 429", code)
	}
	close(unblock)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestReadyzFlipsAfterWarmup asserts the readiness lifecycle: alive but
// not ready before warmup, ready after, and the warmup fit lands in the
// registry so the first real request is a cache hit.
func TestReadyzFlipsAfterWarmup(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz before warmup: %d, want 200", code)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before warmup: %d, want 503: %s", code, body)
	}

	if err := s.Warmup(Key{Selection: testSelection, Metric: testMetric, Model: testModel}); err != nil {
		t.Fatal(err)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after warmup: %d, want 200: %s", code, body)
	}
	if st := s.RegistryStats(); st.Fits != 1 || st.Entries != 1 {
		t.Errorf("after warmup: fits=%d entries=%d, want 1/1", st.Fits, st.Entries)
	}
	if code, _ := post(t, ts.URL+"/v1/predict", predictBody(t, 4)); code != http.StatusOK {
		t.Fatal("warmed request failed")
	}
	if st := s.RegistryStats(); st.Fits != 1 || st.Hits != 1 {
		t.Errorf("warmed request: fits=%d hits=%d, want fits=1 hits=1", st.Fits, st.Hits)
	}
}

// TestGracefulShutdownDrains holds a request in flight, starts Shutdown,
// and asserts the drain contract: Shutdown waits for the request, the
// request completes successfully with a full body, readiness flips off,
// and new connections are refused afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.Warmup(Key{Selection: testSelection, Metric: testMetric, Model: testModel}); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	unblock := make(chan struct{})
	var hookOnce sync.Once
	s.testHookAdmitted = func() {
		hookOnce.Do(func() {
			close(admitted)
			<-unblock
		})
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		code int
		body []byte
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/predict", "application/json", bytes.NewReader(predictBody(t, 4)))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		reqDone <- result{code: resp.StatusCode, body: b, err: err}
	}()
	<-admitted

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must not complete while the request is still in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight request finished", err)
	case <-time.After(200 * time.Millisecond):
	}
	if s.Ready() {
		t.Error("server still ready during drain")
	}

	close(unblock)
	r := <-reqDone
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", r.code, r.body)
	}
	var resp predictResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatalf("drained request returned a truncated body: %v\n%s", err, r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}

	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("connections still accepted after Shutdown returned")
	}
}

// TestRequestValidationStatuses covers the client-error surface: bad
// JSON, unknown algorithms, empty targets, wrong method, oversized
// bodies, and target errors that surface from the pipeline.
func TestRequestValidationStatuses(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 256 << 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	small := predictBody(t, 4)
	_, targets := suite(t)
	var idle []*telemetry.Experiment
	for _, e := range targets {
		c := e.Clone()
		c.Throughput = 0
		idle = append(idle, c)
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"malformed JSON", []byte(`{"to_sku":`), http.StatusBadRequest},
		{"unknown field", []byte(`{"bogus":1}`), http.StatusBadRequest},
		{"unknown model", bytes.Replace(small, []byte(`"Regression"`), []byte(`"Oracle"`), 1), http.StatusBadRequest},
		{"no targets", []byte(`{"to_sku":{"cpus":4}}`), http.StatusBadRequest},
		{"zero cpus", bytes.Replace(small, []byte(`"to_sku":{"cpus":4,"memory_gb":0}`), []byte(`"to_sku":{"cpus":0,"memory_gb":0}`), 1), http.StatusBadRequest},
		{"oversized", append(append([]byte(nil), small[:len(small)-1]...), bytes.Repeat([]byte(" "), 300<<10)...), http.StatusRequestEntityTooLarge},
		{"trailing close brackets", append(append([]byte(nil), small...), "]]x"...), http.StatusBadRequest},
		{"over the cap after the object", append(append([]byte(nil), small...), bytes.Repeat([]byte(" "), 300<<10)...), http.StatusRequestEntityTooLarge},
		{"zero throughput", marshalPredict(t, idle, 4), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts.URL+"/v1/predict", tc.body)
			if code != tc.want {
				t.Errorf("status %d, want %d: %s", code, tc.want, body)
			}
		})
	}

	t.Run("wrong method", func(t *testing.T) {
		if code, _ := get(t, ts.URL+"/v1/predict"); code != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/predict: %d, want 405", code)
		}
	})

	t.Run("mixed-SKU targets", func(t *testing.T) {
		refs, targets := suite(t)
		var other *telemetry.Experiment
		for _, e := range refs {
			if e.SKU.CPUs != targets[0].SKU.CPUs {
				other = e
				break
			}
		}
		if other == nil {
			t.Fatal("no reference on a different SKU")
		}
		mixed := append(append([]*telemetry.Experiment(nil), targets...), other)
		code, body := post(t, ts.URL+"/v1/predict", marshalPredict(t, mixed, 4))
		if code != http.StatusUnprocessableEntity {
			t.Errorf("mixed SKUs: status %d, want 422: %s", code, body)
		}
	})
}
