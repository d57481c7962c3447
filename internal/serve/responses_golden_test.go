package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wpred/internal/bench"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

var updateResponses = flag.Bool("update", false, "rewrite testdata/responses.golden from the current response bodies")

// goldenKeys are the registry keys the response golden covers: the eight
// cheap keys of wpredload's cold-key pool (internal/loadgen) plus one
// MLP-scaled key, whose pairwise fit is the expensive scaling stage.
var goldenKeys = []Key{
	{Selection: "Variance", Metric: "Fro", Model: "Regression"},
	{Selection: "Variance", Metric: "L1,1", Model: "Regression"},
	{Selection: "Variance", Metric: "Canb", Model: "Regression"},
	{Selection: "Pearson", Metric: "L2,1", Model: "Regression"},
	{Selection: "Pearson", Metric: "Fro", Model: "Regression"},
	{Selection: "Pearson", Metric: "L1,1", Model: "Regression"},
	{Selection: "Variance", Metric: "L2,1", Model: "SVM"},
	{Selection: "Pearson", Metric: "Canb", Model: "Regression"},
	{Selection: "Variance", Metric: "L2,1", Model: "NNet"},
}

// goldenSuite simulates the golden's reference suite and targets: the
// shared test suite's shape (three benchmarks on 2- and 4-CPU SKUs, two
// runs each, YCSB targets on the 2-CPU SKU) at 60 ticks per run, so
// decoding, sanitizing and snapshotting stay cheap under -race.
func goldenSuite(t *testing.T) (refs, targets []*telemetry.Experiment) {
	t.Helper()
	skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
	src := telemetry.NewSource(42)
	ycsb, err := bench.ByName("YCSB")
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(ws []*simdb.Workload, skus []telemetry.SKU) []*telemetry.Experiment {
		var out []*telemetry.Experiment
		for _, w := range ws {
			terms := 4
			if bench.Serial(w.Name) {
				terms = 1
			}
			for _, sku := range skus {
				for r := 0; r < 2; r++ {
					out = append(out, simdb.Simulate(w, simdb.Config{
						SKU: sku, Terminals: terms, Run: r, DataGroup: r % 3, Ticks: 60,
					}, src))
				}
			}
		}
		return out
	}
	return simulate(bench.Standard()[:3], skus), simulate([]*simdb.Workload{ycsb}, skus[:1])
}

// goldenTargetSets returns the target lists the schedule predicts: both
// clean runs, and a clean run beside a truncated one that sanitization
// drops (reported in the response's "dropped" section).
func goldenTargetSets(tg []*telemetry.Experiment) [][]*telemetry.Experiment {
	short := tg[0].Clone()
	for f := range short.Resources.Samples {
		short.Resources.Samples[f] = short.Resources.Samples[f][:12]
	}
	short.ThroughputSeries = short.ThroughputSeries[:12]
	return [][]*telemetry.Experiment{{tg[0], tg[1]}, {tg[1], short}}
}

// goldenToCPUs are the prediction targets: both profiled SKUs plus one the
// suite never profiled, whose pairwise scaling dataset cannot be built.
var goldenToCPUs = []int{4, 2, 8}

// goldenRecorder drives requests through a server's handler in process
// and records one line per response body: sequence number, label, status
// and the body's sha256.
type goldenRecorder struct {
	t     *testing.T
	lines []string
}

func (g *goldenRecorder) send(s *Server, path, label string, body []byte) []byte {
	g.t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	out := rec.Body.Bytes()
	g.lines = append(g.lines, fmt.Sprintf("%04d %s %d %x", len(g.lines)+1, label, rec.Code, sha256.Sum256(out)))
	return out
}

// predictReq renders one single-prediction request in wire form.
func predictReq(t *testing.T, k Key, targets []*telemetry.Experiment, toCPUs int) predictWire {
	t.Helper()
	raw := predictWire{Selection: k.Selection, Metric: k.Metric, Model: k.Model, ToSKU: skuJSON{CPUs: toCPUs}}
	for _, e := range targets {
		var buf bytes.Buffer
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			t.Fatal(err)
		}
		raw.Target = append(raw.Target, json.RawMessage(buf.Bytes()))
	}
	return raw
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func keyLabel(k Key) string {
	return strings.ReplaceAll(k.Selection+"|"+k.Metric+"|"+k.Model, " ", "_")
}

// TestResponsesGolden pins the bytes wpredd serves. A fixed, seeded
// schedule runs against an in-process server with a 4-entry registry and
// a snapshot directory, and the sha256 of every response body must match
// testdata/responses.golden. The schedule covers:
//   - cold fits (every key's first request) and single predictions of
//     every (key, target set, to_sku) triple;
//   - batch predictions that send every triple a second time, so scaling
//     stages computed once are also served again;
//   - LRU evictions followed by lazy snapshot restores (nine keys over a
//     four-entry registry);
//   - a target that sanitization drops and a to_sku the suite never
//     profiled (an error body);
//   - /v1/observe feedback up to a confirmed drift event and its refit;
//   - a drained restart that warm-restores from the snapshot directory.
//
// The server-side tests elsewhere compare a binary with itself; this one
// compares it with the committed bytes, so a change that moves the last
// bit of any answer fails here. Regenerate deliberately with
//
//	go test ./internal/serve -run TestResponsesGolden -update
func TestResponsesGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	g := &goldenRecorder{t: t}
	refs, targets := goldenSuite(t)

	// Every (key, target set, to_sku) triple, rendered once: single
	// bodies per triple and one batch body per key.
	type triple struct {
		label string
		body  []byte
	}
	singles := map[Key][]triple{}
	batches := map[Key][]byte{}
	for _, k := range goldenKeys {
		var batch batchWire
		for ti, tg := range goldenTargetSets(targets) {
			for _, to := range goldenToCPUs {
				body := mustMarshal(t, predictReq(t, k, tg, to))
				singles[k] = append(singles[k], triple{fmt.Sprintf("%s t%d to%d", keyLabel(k), ti, to), body})
				batch.Requests = append(batch.Requests, body)
			}
		}
		batches[k] = mustMarshal(t, batch)
	}
	predictAll := func(s *Server, phase string) {
		for _, k := range goldenKeys {
			for _, tr := range singles[k] {
				g.send(s, "/v1/predict", phase+" "+tr.label, tr.body)
			}
		}
	}
	batchAll := func(s *Server, phase string) {
		for _, k := range goldenKeys {
			g.send(s, "/v1/predict/batch", phase+" "+keyLabel(k), batches[k])
		}
	}

	// First life: cold fits, singles, then batches that revisit every
	// triple (the early keys were evicted by then and restore lazily).
	s1 := New(Config{Refs: refs, Seed: 42, RegistryCap: 4, SnapshotDir: dir})
	refitDone := make(chan error, 1)
	s1.testHookRefitDone = func(_ Key, err error) { refitDone <- err }
	if _, _, err := s1.RestoreSnapshots(); err != nil {
		t.Fatal(err)
	}
	predictAll(s1, "single")
	batchAll(s1, "batch")

	// Feedback for one key until the drift detector confirms a regime
	// change, then predictions after the background refit lands. Runs of
	// identical observe bodies collapse into one line with their count.
	dk := goldenKeys[0]
	scen, err := bench.GenerateDemand(bench.DriftAbrupt, 100, telemetry.NewSource(7).Child("serve/golden"))
	if err != nil {
		t.Fatal(err)
	}
	refit, run, runStart := false, 0, ""
	flush := func() {
		if run > 0 {
			g.lines = append(g.lines, fmt.Sprintf("%04d observe %s x%d %s", len(g.lines)+1, keyLabel(dk), run, runStart))
			run = 0
		}
	}
	for i := 0; i < len(scen.Series) && !refit; i++ {
		body := mustMarshal(t, observeRequest{
			Selection: dk.Selection, Metric: dk.Metric, Model: dk.Model,
			Tick: int64(i), Observed: scen.Series[i], Predicted: scen.Level,
		})
		rec := httptest.NewRecorder()
		s1.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body)))
		line := fmt.Sprintf("%d %x", rec.Code, sha256.Sum256(rec.Body.Bytes()))
		if run > 0 && line != runStart {
			flush()
		}
		if run == 0 {
			runStart = line
		}
		run++
		var resp observeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("observe %d: %v: %s", i, err, rec.Body.Bytes())
		}
		refit = resp.Refit
	}
	flush()
	if !refit {
		t.Fatal("the abrupt demand stream never triggered a refit")
	}
	select {
	case err := <-refitDone:
		if err != nil {
			t.Fatalf("drift refit failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drift refit never completed")
	}
	for _, tr := range singles[dk] {
		g.send(s1, "/v1/predict", "post-refit "+tr.label, tr.body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Second life: warm restart from the snapshot directory, then every
	// triple again through batches.
	s2 := New(Config{Refs: refs, Seed: 42, RegistryCap: 4, SnapshotDir: dir})
	if restored, _, err := s2.RestoreSnapshots(); err != nil || restored == 0 {
		t.Fatalf("restart restored %d snapshots (err %v), want some", restored, err)
	}
	batchAll(s2, "restart-batch")
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s2.RegistryStats(); st.Restores == 0 {
		t.Errorf("restarted server restored nothing: %+v", st)
	}

	got := strings.Join(g.lines, "\n") + "\n"
	path := filepath.Join("testdata", "responses.golden")
	if *updateResponses {
		header := "# sha256 of every response body of TestResponsesGolden's schedule.\n" +
			"# Regenerate deliberately: go test ./internal/serve -run TestResponsesGolden -update\n"
		if err := os.WriteFile(path, []byte(header+got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create it): %v", err)
	}
	var want []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	have := g.lines
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			t.Fatalf("response diverges from golden at line %d:\ngot:    %s\ngolden: %s\n(rerun with -update if the change is intentional)", i+1, have[i], want[i])
		}
	}
	if len(want) != len(have) {
		t.Fatalf("schedule produced %d responses, golden has %d (rerun with -update if intentional)", len(have), len(want))
	}
}
