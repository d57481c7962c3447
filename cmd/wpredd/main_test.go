package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wpred"
	"wpred/internal/bench"
	"wpred/internal/telemetry"
)

// lineWatcher is a threadsafe stderr sink that signals once a line
// matching the pattern appears, so the test can learn the bound address
// of a daemon started with -addr 127.0.0.1:0.
type lineWatcher struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	pattern *regexp.Regexp
	found   chan []string
	done    bool
}

func newLineWatcher(pattern string) *lineWatcher {
	return &lineWatcher{pattern: regexp.MustCompile(pattern), found: make(chan []string, 1)}
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.done {
		if m := w.pattern.FindStringSubmatch(w.buf.String()); m != nil {
			w.done = true
			w.found <- m
		}
	}
	return len(p), nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestDaemonLifecycle drives the full wpredd lifecycle through run():
// startup with a small simulated suite, /readyz flipping once warmup
// completes, a successful prediction round trip, and a graceful drain on
// context cancellation (the signal path) with exit code 0.
func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	stderr := newLineWatcher(`listening on (\S+)`)
	var stdout bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-skus", "2,4",
			"-runs", "1",
			"-terminals", "2",
			"-drain-timeout", "30s",
		}, &stdout, stderr)
	}()

	var addr string
	select {
	case m := <-stderr.found:
		addr = m[1]
	case code := <-exit:
		t.Fatalf("daemon exited early with %d:\n%s", code, stderr.String())
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never started listening:\n%s", stderr.String())
	}

	// Poll /readyz until warmup finishes (the default pipeline fit).
	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("/readyz returned unexpected status %d", resp.StatusCode)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One prediction round trip against the warmed default pipeline.
	src := wpred.NewSource(7)
	ycsb, err := wpred.WorkloadByName("YCSB")
	if err != nil {
		t.Fatal(err)
	}
	targets := wpred.GenerateSuite([]*wpred.Workload{ycsb},
		[]wpred.SKU{{CPUs: 2, MemoryGB: 16}}, []int{2}, 1, src)
	var docs []json.RawMessage
	for _, e := range targets {
		var buf bytes.Buffer
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
	}
	body, err := json.Marshal(map[string]any{
		"to_sku": map[string]int{"cpus": 4},
		"target": docs,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/predict status %d: %s", resp.StatusCode, rb)
	}
	var pred struct {
		PredictedThroughput float64 `json:"predicted_throughput"`
	}
	if err := json.Unmarshal(rb, &pred); err != nil || pred.PredictedThroughput <= 0 {
		t.Fatalf("bad prediction body (err=%v): %s", err, rb)
	}

	// Graceful drain: cancelling ctx is exactly what SIGTERM does in main.
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after graceful shutdown:\n%s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not exit after shutdown:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("drain log line missing:\n%s", stderr.String())
	}
}

// TestDaemonWarmRestart runs two daemon lives against one -snapshot-dir:
// the first trains the default pipeline and persists it on drain; the
// second must restore it and report a warmup with zero fits.
func TestDaemonWarmRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-skus", "2,4",
		"-runs", "1",
		"-terminals", "2",
		"-drain-timeout", "30s",
		"-snapshot-dir", dir,
	}

	life := func(wantRestoreLine, wantWarmupLine string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stderr := newLineWatcher(`; ready`)
		var stdout bytes.Buffer
		exit := make(chan int, 1)
		go func() { exit <- run(ctx, args, &stdout, stderr) }()
		select {
		case <-stderr.found:
		case code := <-exit:
			t.Fatalf("daemon exited early with %d:\n%s", code, stderr.String())
		case <-time.After(120 * time.Second):
			t.Fatalf("daemon never became ready:\n%s", stderr.String())
		}
		cancel()
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("exit code %d:\n%s", code, stderr.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon did not exit:\n%s", stderr.String())
		}
		for _, want := range []string{wantRestoreLine, wantWarmupLine} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr missing %q:\n%s", want, stderr.String())
			}
		}
	}

	life("restored 0 snapshot(s)", "warmup trained 1 pipeline(s)")
	life("restored 1 snapshot(s)", "warmup trained 0 pipeline(s)")
}

// TestFlagValidation covers the daemon's fast-fail argument errors.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad skus", []string{"-skus", "2,zero"}},
		{"bad warm triple", []string{"-warm", "only-two|parts"}},
		{"bad flag", []string{"-no-such-flag"}},
		{"zero runs", []string{"-runs", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // never serve even if validation were to pass
			if code := run(ctx, tc.args, &out, &errb); code == 0 {
				t.Errorf("args %v: exit 0, want non-zero\nstderr: %s", tc.args, errb.String())
			}
		})
	}
}

// TestParseWarmKeys pins the -warm syntax.
func TestParseWarmKeys(t *testing.T) {
	keys, err := parseWarmKeys("RFE LogReg|L2,1|SVM; Variance|Fro|Regression")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", []string{"RFE LogReg × L2,1 × SVM", "Variance × Fro × Regression"})
	got := fmt.Sprintf("%v", []string{keys[0].String(), keys[1].String()})
	if got != want {
		t.Errorf("parseWarmKeys = %s, want %s", got, want)
	}
	if _, err := parseWarmKeys("a|b"); err == nil {
		t.Error("two-part triple should fail")
	}
}

// TestDriftSeasonFlagDisablesCyclic drives -drift-season through the
// daemon's flag path: a periodic feedback stream that the default season
// classifies cyclic must confirm only non-cyclic drift under
// -drift-season -1, which disables seasonality.
func TestDriftSeasonFlagDisablesCyclic(t *testing.T) {
	scen, err := bench.GenerateDemand(bench.DriftCyclic, 300, telemetry.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	kinds := func(extra ...string) map[string]int {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stderr := newLineWatcher(`listening on (\S+)`)
		args := append([]string{
			"-addr", "127.0.0.1:0", "-skus", "2,4", "-runs", "1", "-terminals", "2",
			"-warm", "Variance|L2,1|Regression",
		}, extra...)
		exit := make(chan int, 1)
		go func() { exit <- run(ctx, args, io.Discard, stderr) }()
		var addr string
		select {
		case m := <-stderr.found:
			addr = m[1]
		case code := <-exit:
			t.Fatalf("daemon exited early with %d:\n%s", code, stderr.String())
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon never started listening:\n%s", stderr.String())
		}
		out := map[string]int{}
		for i, v := range scen.Series {
			body := fmt.Sprintf(`{"selection":"Variance","metric":"L2,1","model":"Regression","tick":%d,"observed":%v,"predicted":%v}`,
				i, v, scen.Level)
			resp, err := http.Post("http://"+addr+"/v1/observe", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var ob struct {
				Status string `json:"status"`
				Kind   string `json:"kind"`
			}
			err = json.NewDecoder(resp.Body).Decode(&ob)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("observe %d: status %d, err %v", i, resp.StatusCode, err)
			}
			if ob.Status == "drift" {
				out[ob.Kind]++
			}
		}
		cancel()
		select {
		case <-exit:
		case <-time.After(60 * time.Second):
			t.Fatalf("daemon did not exit:\n%s", stderr.String())
		}
		return out
	}
	if got := kinds(); got["cyclic"] == 0 {
		t.Fatalf("default season classified no event cyclic: %v", got)
	}
	if got := kinds("-drift-season", "-1"); got["cyclic"] != 0 || len(got) == 0 {
		t.Errorf("-drift-season -1: events by kind = %v, want events and none cyclic", got)
	}
}
