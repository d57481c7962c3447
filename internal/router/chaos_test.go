package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wpred/internal/bench"
	"wpred/internal/serve"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// chaosSuite simulates the fleet's shared reference suite and one target,
// mirroring the serve package's test fixture.
func chaosSuite(t *testing.T) (refs, targets []*telemetry.Experiment) {
	t.Helper()
	skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
	src := telemetry.NewSource(42)
	refs = bench.GenerateSuite(bench.Standard()[:3], skus, []int{4}, 2, src)
	ycsb, err := bench.ByName("YCSB")
	if err != nil {
		t.Fatal(err)
	}
	targets = bench.GenerateSuite([]*simdb.Workload{ycsb}, skus[:1], []int{4}, 2, src)
	return refs, targets
}

// chaosBody renders one /v1/predict request for the given registry key.
func chaosBody(t *testing.T, targets []*telemetry.Experiment, metric string) []byte {
	t.Helper()
	var docs []json.RawMessage
	for _, e := range targets {
		var buf bytes.Buffer
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
	}
	body, err := json.Marshal(map[string]any{
		"selection": "Variance",
		"metric":    metric,
		"model":     "Regression",
		"to_sku":    map[string]int{"cpus": 4},
		"target":    docs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// chaosBackend is one fleet member: a live serve.Server on a real port.
type chaosBackend struct {
	srv  *serve.Server
	addr string
}

// startBackend boots one wpredd-equivalent on addr (":0" picks a port),
// restoring from the shared snapshot directory first — the daemon's
// startup order.
func startBackend(t *testing.T, refs []*telemetry.Experiment, dir, addr string) *chaosBackend {
	t.Helper()
	srv := serve.New(serve.Config{Refs: refs, Seed: 42, SnapshotDir: dir})
	if _, _, err := srv.RestoreSnapshots(); err != nil {
		t.Fatal(err)
	}
	bound, err := srv.ListenAndServe(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &chaosBackend{srv: srv, addr: bound}
}

// TestChaosKillAndWarmRestartUnderLoad is the fleet acceptance test: three
// backends share one snapshot directory behind the router; one is killed
// mid-load and restarted on the same port. The router must hide the crash
// completely — zero failed requests, byte-identical responses per key —
// and the shared snapshots must hold fleet-wide fits to exactly one per
// distinct key, with the restarted backend fitting nothing at all.
func TestChaosKillAndWarmRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is seconds-long; skipped in -short")
	}
	refs, targets := chaosSuite(t)
	dir := t.TempDir()

	// Three-backend fleet.
	fleet := make([]*chaosBackend, 3)
	for i := range fleet {
		fleet[i] = startBackend(t, refs, dir, "127.0.0.1:0")
	}
	shutdownAll := func() {
		for _, b := range fleet {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = b.srv.Shutdown(ctx)
			cancel()
		}
	}
	defer shutdownAll()

	urls := make([]string, len(fleet))
	for i, b := range fleet {
		urls[i] = "http://" + b.addr
	}
	rt, err := New(Config{
		Backends:         urls,
		Retries:          4,
		RetryBudgetRatio: 1,
		Timeout:          60 * time.Second,
		Backoff:          Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Breaker:          BreakerConfig{Threshold: 2, Cooldown: 200 * time.Millisecond},
		HealthInterval:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer func() { stopProbes(); rt.Wait() }()
	rt.Start(probeCtx)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Three distinct registry keys; the victim backend is key 0's primary,
	// so its requests must fail over during the outage.
	metrics := []string{"L1,1", "L2,1", "Fro"}
	bodies := make([][]byte, len(metrics))
	for i, m := range metrics {
		bodies[i] = chaosBody(t, targets, m)
	}
	victimURL := rt.ring.Lookup("Variance|" + metrics[0] + "|Regression")[0]
	victimIdx := -1
	for i, u := range urls {
		if u == victimURL {
			victimIdx = i
		}
	}

	// Warm round: fit each key on its primary (and snapshot it) before
	// the chaos starts, so failovers restore instead of refitting.
	golden := make([][]byte, len(metrics))
	for i := range metrics {
		resp, err := http.Post(front.URL+"/v1/predict", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("warm round key %d: status %d: %s\nrows=%+v", i, resp.StatusCode, buf.Bytes(), rt.statusRows())
		}
		golden[i] = buf.Bytes()
	}

	// Concurrent load across all keys while the victim dies and returns.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		failures  []string
		divergent []string
		total     int
		stop      = make(chan struct{})
	)
	client := &http.Client{}
	loadStart := time.Now()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (w + i) % len(metrics)
				resp, err := client.Post(front.URL+"/v1/predict", "application/json", bytes.NewReader(bodies[k]))
				var body bytes.Buffer
				if err == nil {
					_, err = body.ReadFrom(resp.Body)
					resp.Body.Close()
				}
				mu.Lock()
				total++
				switch {
				case err != nil:
					failures = append(failures, fmt.Sprintf("worker %d: %v", w, err))
				case resp.StatusCode != 200:
					failures = append(failures, fmt.Sprintf("worker %d: status %d: %s", w, resp.StatusCode, body.String()))
				case !bytes.Equal(body.Bytes(), golden[k]):
					divergent = append(divergent, fmt.Sprintf("worker %d key %d:\n%s\nvs golden\n%s", w, k, body.String(), golden[k]))
				}
				mu.Unlock()
			}
		}(w)
	}

	// Kill the victim mid-load (graceful listener close — in-flight work
	// drains, new connections are refused)...
	time.Sleep(300 * time.Millisecond)
	killCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := fleet[victimIdx].srv.Shutdown(killCtx); err != nil {
		t.Errorf("victim shutdown: %v", err)
	}
	cancel()
	deadStats := fleet[victimIdx].srv.RegistryStats()

	// ...let the outage run under load, then restart it on the same port.
	time.Sleep(500 * time.Millisecond)
	fleet[victimIdx] = startBackend(t, refs, dir, fleet[victimIdx].addr)
	restarted := fleet[victimIdx]

	// Load continues against the healed fleet long enough for the router
	// to re-admit the restarted backend (cooldown + probe interval), then
	// until 50 requests have completed or the load has run for 6 s. The
	// sleeps alone would shrink the load with a faster kill and restart;
	// with the deadline the stall check is a rate: fewer than 50 requests
	// in 6 s of load fails.
	time.Sleep(700 * time.Millisecond)
	for deadline := loadStart.Add(6 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		mu.Lock()
		n := total
		mu.Unlock()
		if n >= 50 {
			break
		}
	}
	close(stop)
	wg.Wait()

	if len(failures) > 0 {
		t.Errorf("%d of %d requests failed during chaos; first: %s", len(failures), total, failures[0])
	}
	if len(divergent) > 0 {
		t.Errorf("%d of %d responses diverged from golden; first: %s", len(divergent), total, divergent[0])
	}
	if total < 50 {
		t.Errorf("only %d requests completed in %v of load; load generator stalled", total, time.Since(loadStart))
	}

	// Fleet-wide fits == distinct keys: the shared snapshot directory
	// means no key was ever trained twice, even across the crash.
	fits := deadStats.Fits
	for _, b := range fleet {
		fits += b.srv.RegistryStats().Fits
	}
	if fits != uint64(len(metrics)) {
		t.Errorf("fleet-wide fits = %d, want %d (one per distinct key)", fits, len(metrics))
	}
	if st := restarted.srv.RegistryStats(); st.Fits != 0 {
		t.Errorf("restarted backend trained %d pipelines, want 0 (warm restore)", st.Fits)
	}
	if st := restarted.srv.RegistryStats(); st.Restores == 0 {
		t.Error("restarted backend recorded no restores")
	}
}
