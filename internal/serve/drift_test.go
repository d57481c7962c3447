package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wpred/internal/bench"
	"wpred/internal/telemetry"
)

// observeBody renders a /v1/observe request for one feedback observation.
func observeBody(t *testing.T, k Key, tick int64, observed, predicted float64) []byte {
	t.Helper()
	body, err := json.Marshal(observeRequest{
		Selection: k.Selection,
		Metric:    k.Metric,
		Model:     k.Model,
		Tick:      tick,
		Observed:  observed,
		Predicted: predicted,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// marshalPredictKey renders a /v1/predict request for the shared target
// against an explicit registry key.
func marshalPredictKey(t *testing.T, k Key, toCPUs int) []byte {
	t.Helper()
	_, targets := suite(t)
	raw := predictRequest{
		Selection: k.Selection,
		Metric:    k.Metric,
		Model:     k.Model,
		ToSKU:     skuJSON{CPUs: toCPUs},
	}
	for _, e := range targets {
		var buf strings.Builder
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			t.Fatal(err)
		}
		raw.Target = append(raw.Target, json.RawMessage(buf.String()))
	}
	body, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

var (
	perturbedOnce sync.Once
	perturbedSet  []*telemetry.Experiment
)

// perturbedRefs simulates the reference suite after a regime change: the
// same benchmarks and SKUs regenerated from a different seed, so models
// refit against it genuinely predict differently.
func perturbedRefs(t *testing.T) []*telemetry.Experiment {
	t.Helper()
	perturbedOnce.Do(func() {
		skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
		perturbedSet = bench.GenerateSuite(bench.Standard()[:3], skus, []int{4}, 2, telemetry.NewSource(4242))
	})
	if len(perturbedSet) == 0 {
		t.Fatal("perturbed suite generation produced no experiments")
	}
	return perturbedSet
}

// TestObserveRejectsMalformedRequests pins the /v1/observe rejection
// semantics: malformed bodies never reach the drift tracker.
func TestObserveRejectsMalformedRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/observe"

	good := Key{Selection: testSelection, Metric: testMetric, Model: testModel}
	cases := []struct {
		name string
		body string
	}{
		{"truncated JSON", `{"tick": 1,`},
		{"unknown field", `{"tick": 1, "observed": 2, "predicted": 2, "bogus": true}`},
		{"trailing data", `{"tick": 1, "observed": 2, "predicted": 2}{"again": true}`},
		{"overflowing observed", `{"tick": 1, "observed": 1e999, "predicted": 2}`},
		{"NaN via string", `{"tick": 1, "observed": "NaN", "predicted": 2}`},
		{"unknown selection", `{"selection": "NoSuchStrategy", "tick": 1, "observed": 2, "predicted": 2}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := post(t, url, []byte(tc.body))
			if code != 400 {
				t.Errorf("status = %d, want 400", code)
			}
		})
	}
	if _, _, events, _ := s.tracker.Stats(); events != 0 {
		t.Errorf("rejected requests produced %d drift events", events)
	}

	// A well-formed observation with defaults applied lands in the tracker.
	code, body := post(t, url, observeBody(t, good, 1, 101, 100))
	if code != 200 {
		t.Fatalf("valid observation: status = %d, body %s", code, body)
	}
	if keys, observations, _, _ := s.tracker.Stats(); keys != 1 || observations != 1 {
		t.Errorf("tracker stats = (%d keys, %d obs), want (1, 1)", keys, observations)
	}
}

// driftRunResult captures everything one end-to-end drift-loop run
// produces that determinism can be asserted over.
type driftRunResult struct {
	preA, preB   []byte // predictions before the regime change
	midA, midB   []byte // predictions while the refit is held in flight
	postA, postB []byte // predictions after the refit swapped models
	refitsSeen   int    // observe responses that reported refit=true
	eventsSeen   int    // observe responses that reported status "drift"
	stats        RegistryStats
}

// runDriftScenario drives one full drift loop end to end: warm two keys,
// swap the reference suite (the regime genuinely moves), stream a seeded
// abrupt demand shift through /v1/observe against key B, hold the
// triggered background refit in flight while proving the stale model still
// serves, then release it and capture the post-refit predictions.
func runDriftScenario(t *testing.T) driftRunResult {
	t.Helper()
	kA := Key{Selection: testSelection, Metric: testMetric, Model: testModel}
	kB := Key{Selection: testSelection, Metric: testMetric, Model: "LMM"}

	s := newTestServer(t, Config{})

	// Hold the drift-triggered refit of kB in flight until released; armed
	// keeps the warmup fits out of the trap.
	var armed atomic.Bool
	var enteredOnce sync.Once
	refitEntered := make(chan struct{})
	refitRelease := make(chan struct{})
	s.testHookTrain = func(k Key) {
		if armed.Load() && k == kB {
			enteredOnce.Do(func() { close(refitEntered) })
			<-refitRelease
		}
	}
	refitDone := make(chan error, 4)
	s.testHookRefitDone = func(_ Key, err error) { refitDone <- err }

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	predictURL, observeURL := ts.URL+"/v1/predict", ts.URL+"/v1/observe"

	if err := s.Warmup(kA, kB); err != nil {
		t.Fatal(err)
	}
	bodyA, bodyB := marshalPredictKey(t, kA, 4), marshalPredictKey(t, kB, 4)
	res := driftRunResult{}
	mustPredict := func(body []byte) []byte {
		code, resp := post(t, predictURL, body)
		if code != 200 {
			t.Fatalf("predict: status = %d, body %s", code, resp)
		}
		return resp
	}
	res.preA, res.preB = mustPredict(bodyA), mustPredict(bodyB)

	// The workload regime moves: refits from here on train against the
	// perturbed suite, so the eventual refit genuinely changes predictions.
	s.SetRefs(perturbedRefs(t))
	armed.Store(true)

	// Stream the seeded abrupt demand shift as feedback for kB. The
	// predictions in the stream assume the pre-shift level, exactly what
	// the stale model would keep saying.
	scen, err := bench.GenerateDemand(bench.DriftAbrupt, 500, telemetry.NewSource(7).Child("serve/e2e"))
	if err != nil {
		t.Fatal(err)
	}
	feed := func(i int) observeResponse {
		code, raw := post(t, observeURL, observeBody(t, kB, int64(i), scen.Series[i], scen.Level))
		if code != 200 {
			t.Fatalf("observe tick %d: status = %d, body %s", i, code, raw)
		}
		var resp observeResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("observe tick %d: %v", i, err)
		}
		if resp.Status == "drift" {
			res.eventsSeen++
			if resp.Refit {
				res.refitsSeen++
			}
		}
		return resp
	}
	next := len(scen.Series)
	for i := range scen.Series {
		if resp := feed(i); resp.Refit {
			if resp.Kind != "abrupt" {
				t.Errorf("drift kind = %q, want abrupt", resp.Kind)
			}
			onset := resp.OnsetIndex
			if onset < scen.Changes[0]-10 || onset > scen.Changes[0]+40 {
				t.Errorf("onset index = %d, want near the true change at %d", onset, scen.Changes[0])
			}
			next = i + 1
			break
		}
	}
	if next == len(scen.Series) {
		t.Fatal("no drift event confirmed over the whole abrupt stream")
	}

	// The refit is now held in flight by the train hook: the stale models
	// must keep serving byte-identically, with zero errors.
	select {
	case <-refitEntered:
	case <-time.After(30 * time.Second):
		t.Fatal("drift-triggered refit never started training")
	}
	res.midA, res.midB = mustPredict(bodyA), mustPredict(bodyB)
	close(refitRelease)
	select {
	case err := <-refitDone:
		if err != nil {
			t.Fatalf("background refit failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("background refit never completed")
	}
	res.postA, res.postB = mustPredict(bodyA), mustPredict(bodyB)

	// Play out the rest of the stream: the post-shift regime is stationary,
	// so no further regime change may be confirmed.
	for i := next; i < len(scen.Series); i++ {
		feed(i)
	}
	res.stats = s.RegistryStats()
	return res
}

// TestDriftE2ERefitLoopDeterministic is the end-to-end acceptance test for
// the drift loop: a seeded abrupt regime change streamed through
// /v1/observe is detected within the configured window and triggers
// exactly one background refit for the drifted key; the stale model serves
// byte-identically (zero non-200s) while the refit is in flight; the
// unaffected key's responses never change; and two same-seed runs of the
// whole loop produce byte-identical post-refit predictions.
func TestDriftE2ERefitLoopDeterministic(t *testing.T) {
	run1 := runDriftScenario(t)

	if run1.eventsSeen != 1 || run1.refitsSeen != 1 {
		t.Errorf("drift responses = %d events / %d refits, want exactly 1 / 1",
			run1.eventsSeen, run1.refitsSeen)
	}
	if run1.stats.Fits != 2 {
		t.Errorf("fits = %d, want 2 (the two warmups; the refit must not count as a fit)", run1.stats.Fits)
	}
	if run1.stats.Refits != 1 || run1.stats.RefitErrors != 0 {
		t.Errorf("refits = %d (errors %d), want exactly 1 clean refit",
			run1.stats.Refits, run1.stats.RefitErrors)
	}

	// Stale model served during the refit; unaffected key never moves.
	if string(run1.midB) != string(run1.preB) {
		t.Error("drifted key's response changed while the refit was still in flight")
	}
	if string(run1.midA) != string(run1.preA) || string(run1.postA) != string(run1.preA) {
		t.Error("unaffected key's responses changed across the drift loop")
	}
	// The refit genuinely swapped models: predictions move once it lands.
	if string(run1.postB) == string(run1.preB) {
		t.Error("drifted key's response unchanged after the refit swapped in the new suite")
	}

	// Same seed, same loop: every captured response is byte-identical.
	run2 := runDriftScenario(t)
	for _, c := range []struct {
		name string
		a, b []byte
	}{
		{"pre/A", run1.preA, run2.preA},
		{"pre/B", run1.preB, run2.preB},
		{"post/A", run1.postA, run2.postA},
		{"post/B", run1.postB, run2.postB},
	} {
		if string(c.a) != string(c.b) {
			t.Errorf("%s responses differ between two same-seed runs:\n%s\n%s", c.name, c.a, c.b)
		}
	}
}

// TestDriftStateSurvivesRestart pins the warm-restart contract for the
// drift layer: observation windows persisted on drain are restored by the
// next life, and the restored tracker's forecast matches the one the
// previous life would have produced.
func TestDriftStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	k := Key{Selection: testSelection, Metric: testMetric, Model: testModel}

	s1 := newTestServer(t, Config{SnapshotDir: dir})
	ts := httptest.NewServer(s1.Handler())
	scen, err := bench.GenerateDemand(bench.DriftNone, 48, telemetry.NewSource(7).Child("serve/restart"))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range scen.Series {
		if code, body := post(t, ts.URL+"/v1/observe", observeBody(t, k, int64(i), v, scen.Level)); code != 200 {
			t.Fatalf("observe: status = %d, body %s", code, body)
		}
	}
	ts.Close()
	want := s1.DriftForecast(k, 8)
	if want == nil {
		t.Fatal("no forecast from a tracked key")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, driftStateFile)); err != nil {
		t.Fatalf("drift state not persisted on drain: %v", err)
	}

	s2 := newTestServer(t, Config{SnapshotDir: dir})
	if _, _, err := s2.RestoreSnapshots(); err != nil {
		t.Fatal(err)
	}
	keys, observations, _, _ := s2.tracker.Stats()
	if keys != 1 || observations != len(scen.Series) {
		t.Fatalf("restored tracker stats = (%d keys, %d obs), want (1, %d)", keys, observations, len(scen.Series))
	}
	got := s2.DriftForecast(k, 8)
	if got == nil {
		t.Fatal("restored tracker lost the key")
	}
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Errorf("restored forecast diverged:\n got %v\nwant %v", got, want)
	}

	// A corrupt state file degrades to a cold tracker, never a failed start.
	if err := os.WriteFile(filepath.Join(dir, driftStateFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, Config{SnapshotDir: dir})
	if _, _, err := s3.RestoreSnapshots(); err != nil {
		t.Fatal(err)
	}
	if keys, _, _, _ := s3.tracker.Stats(); keys != 0 {
		t.Errorf("corrupt drift state restored %d keys, want cold start", keys)
	}
}

// TestHealthCarriesDriftStatus asserts the health payload exposes the
// drift section with live counters.
func TestHealthCarriesDriftStatus(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	k := Key{Selection: testSelection, Metric: testMetric, Model: testModel}
	if code, _ := post(t, ts.URL+"/v1/observe", observeBody(t, k, 0, 100, 100)); code != 200 {
		t.Fatal("observe failed")
	}
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Fatalf("healthz: status = %d", code)
	}
	var payload struct {
		Drift *driftStatusJSON `json:"drift"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Drift == nil {
		t.Fatal("healthz payload has no drift section")
	}
	if payload.Drift.Keys != 1 || payload.Drift.Observations != 1 {
		t.Errorf("drift status = %+v, want 1 key / 1 observation", payload.Drift)
	}
}
