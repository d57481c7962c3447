package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wpred/internal/parallel"
)

// serveLocal runs one request through the handler in process (no
// listener, so no connection goroutines) and returns status and body.
func serveLocal(s *Server, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// waitGoroutines fails the test unless the goroutine count falls back to
// baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want back to %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanickingBatchItemFailsOnlyThatItem injects a panic into one item of
// a batch: that item reports the recovered panic, its siblings are served,
// a single request hitting the same fault answers 500, and the next clean
// request succeeds.
func TestPanickingBatchItemFailsOnlyThatItem(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	var armed atomic.Bool
	armed.Store(true)
	s.testHookPredict = func(r *PredictRequest) {
		if armed.Load() && r.ToSKU.CPUs == 2 {
			panic("injected item failure")
		}
	}

	good, bad := predictBody(t, 4), predictBody(t, 2)
	batch, err := json.Marshal(batchRequest{Requests: []json.RawMessage{good, bad, good}})
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewPanicSite("pool")
	items0, pool0 := itemPanics.Recovered(), pool.Recovered()
	code, body := serveLocal(s, "/v1/predict/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var resp struct {
		Results []batchItemResult `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != 3 {
		t.Fatalf("batch body (err %v): %s", err, body)
	}
	if r := resp.Results[1]; r.Prediction != nil || !strings.Contains(r.Error, "injected item failure") {
		t.Errorf("panicking item = %+v, want its recovered panic as the error", r)
	}
	if got := itemPanics.Recovered() - items0; got != 1 {
		t.Errorf("served_item counted %d recovered panics, want 1", got)
	}
	if got := pool.Recovered() - pool0; got != 0 {
		t.Errorf("the item's panic also reached the pool boundary (%d)", got)
	}
	_, single := serveLocal(s, "/v1/predict", good)
	for _, i := range []int{0, 2} {
		if resp.Results[i].Prediction == nil {
			t.Fatalf("sibling item %d failed: %s", i, resp.Results[i].Error)
		}
		item, _ := json.Marshal(resp.Results[i].Prediction)
		if !bytes.Equal(append(item, '\n'), single) {
			t.Errorf("sibling item %d differs from the same single prediction", i)
		}
	}

	if code, body := serveLocal(s, "/v1/predict", bad); code != http.StatusInternalServerError {
		t.Errorf("panicking single predict: status %d (%s), want 500", code, body)
	}
	armed.Store(false)
	if code, body := serveLocal(s, "/v1/predict", bad); code != http.StatusOK {
		t.Errorf("clean predict after the panic: status %d: %s", code, body)
	}
	waitGoroutines(t, baseline)
}

// TestPanickingColdFitFailsItsFlight injects a panic into a cold fit while
// a second request waits on the same flight: both answer 500, the entry is
// dropped rather than wedged, and the next request fits the key again.
func TestPanickingColdFitFailsItsFlight(t *testing.T) {
	s := newTestServer(t, Config{})
	baseline := runtime.NumGoroutine()
	entered, release := make(chan struct{}), make(chan struct{})
	var fits atomic.Int32
	s.testHookTrain = func(Key) {
		if fits.Add(1) == 1 {
			close(entered)
			<-release
			panic("injected fit failure")
		}
	}

	body := predictBody(t, 4)
	flights0 := flightPanics.Recovered()
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	send := func() {
		defer wg.Done()
		code, _ := serveLocal(s, "/v1/predict", body)
		codes <- code
	}
	wg.Add(1)
	go send()
	<-entered
	wg.Add(1)
	go send()
	for deadline := time.Now().Add(30 * time.Second); s.RegistryStats().Hits < 1; {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the in-flight fit")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusInternalServerError {
			t.Errorf("request on the panicking flight: status %d, want 500", code)
		}
	}
	if st := s.RegistryStats(); st.Entries != 0 {
		t.Errorf("registry keeps %d entries after the failed flight, want 0", st.Entries)
	}
	if got := flightPanics.Recovered() - flights0; got != 1 {
		t.Errorf("registry_flight counted %d recovered panics, want 1", got)
	}

	if code, resp := serveLocal(s, "/v1/predict", body); code != http.StatusOK {
		t.Fatalf("request after the panicking fit: status %d: %s", code, resp)
	}
	if st := s.RegistryStats(); st.Fits != 2 {
		t.Errorf("fits = %d, want 2 (the panicking one and its refit)", st.Fits)
	}
	waitGoroutines(t, baseline)
}
