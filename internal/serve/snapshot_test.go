package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wpred/internal/core"
	"wpred/internal/telemetry"
)

// testKey is the cheap registry key the durability tests train.
func cheapKey() Key {
	return Key{Selection: testSelection, Metric: testMetric, Model: testModel}
}

// TestSnapshotRestartRoundTrip is the acceptance test for durable warm
// restart: predictions served after a snapshot + full server restart are
// byte-identical to the pre-restart responses, with zero refits on the
// restarted instance (pinned via the registry fit counter).
func TestSnapshotRestartRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	body := predictBody(t, 4)

	// First life: fit, serve, drain (persists snapshots).
	s1 := newTestServer(t, Config{SnapshotDir: dir})
	if restored, _, err := s1.RestoreSnapshots(); err != nil || restored != 0 {
		t.Fatalf("first start restored %d snapshots (err %v), want 0", restored, err)
	}
	if err := s1.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, before := post(t, ts1.URL+"/v1/predict", body)
	ts1.Close()
	if code != 200 {
		t.Fatalf("pre-restart predict: status %d: %s", code, before)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s1.RegistryStats(); st.Fits != 1 {
		t.Fatalf("first life fits = %d, want 1", st.Fits)
	}

	// Second life: same configuration, same directory.
	s2 := newTestServer(t, Config{SnapshotDir: dir})
	restored, skipped, err := s2.RestoreSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if restored < 1 || skipped != 0 {
		t.Fatalf("restart restored %d / skipped %d, want >=1 / 0", restored, skipped)
	}
	if err := s2.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, after := post(t, ts2.URL+"/v1/predict", body)
	if code != 200 {
		t.Fatalf("post-restart predict: status %d: %s", code, after)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("post-restart response differs from pre-restart:\n%s\nvs\n%s", before, after)
	}
	st := s2.RegistryStats()
	if st.Fits != 0 {
		t.Errorf("restarted server trained %d pipelines, want 0 (warm restore)", st.Fits)
	}
	if st.Restores == 0 {
		t.Error("restarted server recorded no restores")
	}
}

// TestSnapshotLazyRestoreOnMiss covers the fleet path: a second server
// sharing the snapshot directory — never warmed, never restarted — must
// satisfy a cold miss from the sibling's snapshot instead of refitting.
func TestSnapshotLazyRestoreOnMiss(t *testing.T) {
	dir := t.TempDir()
	body := predictBody(t, 4)

	s1 := newTestServer(t, Config{SnapshotDir: dir})
	if err := s1.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	_, before := post(t, ts1.URL+"/v1/predict", body)
	ts1.Close()

	// The sibling starts cold and is not told to restore; the lazy hook
	// must still find the sibling's fit on the first miss.
	s2 := newTestServer(t, Config{SnapshotDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, after := post(t, ts2.URL+"/v1/predict", body)
	if code != 200 {
		t.Fatalf("sibling predict: status %d: %s", code, after)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("sibling response differs:\n%s\nvs\n%s", before, after)
	}
	if st := s2.RegistryStats(); st.Fits != 0 || st.Restores != 1 {
		t.Errorf("sibling fits=%d restores=%d, want 0/1", st.Fits, st.Restores)
	}
}

// TestSnapshotStaleIsRefitted restarts a server under another seed or on
// another reference suite: the on-disk snapshot no longer matches the
// configuration (its seed, or its RefsHash) and must be skipped — a stale
// model is worse than a refit.
func TestSnapshotStaleIsRefitted(t *testing.T) {
	refs, _ := suite(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"other seed", Config{Seed: 43}},
		{"other suite", Config{Refs: refs[:len(refs)-1]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1 := newTestServer(t, Config{SnapshotDir: dir, Seed: 42})
			if err := s1.Warmup(cheapKey()); err != nil {
				t.Fatal(err)
			}

			cfg := tc.cfg
			cfg.SnapshotDir = dir
			s2 := newTestServer(t, cfg)
			restored, skipped, err := s2.RestoreSnapshots()
			if err != nil {
				t.Fatal(err)
			}
			if restored != 0 || skipped != 1 {
				t.Fatalf("stale snapshot: restored %d / skipped %d, want 0 / 1", restored, skipped)
			}
			if err := s2.Warmup(cheapKey()); err != nil {
				t.Fatal(err)
			}
			if st := s2.RegistryStats(); st.Fits != 1 || st.Restores != 0 {
				t.Errorf("stale restart fits=%d restores=%d, want 1/0", st.Fits, st.Restores)
			}
		})
	}
}

// TestSnapshotCorruptFileNeverServes plants a truncated snapshot and
// asserts the server refits rather than serving garbage.
func TestSnapshotCorruptFileNeverServes(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{SnapshotDir: dir})
	if err := s1.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	// Truncate every snapshot file in place.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no snapshot files written (err %v)", err)
	}
	for _, e := range entries {
		if err := os.Truncate(filepath.Join(dir, e.Name()), 40); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestServer(t, Config{SnapshotDir: dir})
	restored, skipped, err := s2.RestoreSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped == 0 {
		t.Fatalf("corrupt snapshots: restored %d / skipped %d, want 0 / >0", restored, skipped)
	}
	if err := s2.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	if st := s2.RegistryStats(); st.Fits != 1 {
		t.Errorf("corrupt restart fits=%d, want 1 (refit)", st.Fits)
	}
}

// keyBody renders the shared /v1/predict request for another registry key.
func keyBody(t *testing.T, k Key, toCPUs int) []byte {
	t.Helper()
	var raw predictWire
	if err := json.Unmarshal(predictBody(t, toCPUs), &raw); err != nil {
		t.Fatal(err)
	}
	raw.Selection, raw.Metric, raw.Model = k.Selection, k.Metric, k.Model
	body, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSnapshotV1FileRefits plants a v1 snapshot under its key (a v1 file
// embedded the whole reference suite; the fixture keeps only its header
// and key, all a v2 decoder reads of it): a v2 server skips it (counted),
// refits the key, answers exactly what a server without snapshots
// answers, and replaces the file with a v2 snapshot.
func TestSnapshotV1FileRefits(t *testing.T) {
	k := Key{Selection: "RFE LogReg", Metric: "L2,1", Model: "SVM"}
	v1, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v1, []byte("wpredsnap v1 ")) || !bytes.Contains(v1, []byte(`"selection":"RFE LogReg","metric":"L2,1","model":"SVM"`)) {
		t.Fatal("testdata/v1.snap is not a v1 snapshot of RFE LogReg|L2,1|SVM")
	}
	body := keyBody(t, k, 4)

	plain := newTestServer(t, Config{})
	tsPlain := httptest.NewServer(plain.Handler())
	code, want := post(t, tsPlain.URL+"/v1/predict", body)
	tsPlain.Close()
	if code != 200 {
		t.Fatalf("reference predict: status %d: %s", code, want)
	}

	dir := t.TempDir()
	s := newTestServer(t, Config{SnapshotDir: dir})
	path := s.snaps.store.Path(k.Selection, k.Metric, k.Model)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, skipped, err := s.RestoreSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped != 1 {
		t.Fatalf("v1 snapshot: restored %d / skipped %d, want 0 / 1", restored, skipped)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, got := post(t, ts.URL+"/v1/predict", body)
	if code != 200 {
		t.Fatalf("predict after v1 skip: status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("refit after a v1 skip answers differently:\n%s\nvs\n%s", got, want)
	}
	if st := s.RegistryStats(); st.Fits != 1 || st.Restores != 0 {
		t.Errorf("fits=%d restores=%d, want 1/0", st.Fits, st.Restores)
	}
	if _, err := s.snaps.store.Load(k.Selection, k.Metric, k.Model); err != nil {
		t.Errorf("the refit did not replace the v1 file with a readable v2 snapshot: %v", err)
	}
}

// TestSnapshotDisagreeingDropsRefit rewrites a key's snapshot with a drop
// the server's suite does not produce. The file is checksum-valid, so it
// decodes, but restoring it fails with core.ErrCorrupt and the key refits.
func TestSnapshotDisagreeingDropsRefit(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{SnapshotDir: dir})
	if err := s1.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	k := cheapKey()
	snap, err := s1.snaps.store.Load(k.Selection, k.Metric, k.Model)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.State.Dropped) != 0 {
		t.Fatalf("the clean test suite recorded drops: %v", snap.State.Dropped)
	}
	refs, _ := suite(t)
	snap.State.Dropped = []core.DroppedExperiment{{
		ID: refs[0].ID(), Workload: refs[0].Workload, Stage: "train",
		Report: &telemetry.CorruptionReport{ID: refs[0].ID(), Ticks: 8, ValidTicks: 8, RejectReason: "too few ticks"},
	}}
	if err := s1.snaps.store.Save(snap); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{SnapshotDir: dir})
	loaded, err := s2.snaps.store.Load(k.Selection, k.Metric, k.Model)
	if err != nil {
		t.Fatalf("the edited snapshot should decode: %v", err)
	}
	if _, _, err := s2.restorePipeline(loaded); !errors.Is(err, core.ErrCorrupt) {
		t.Fatalf("restoring disagreeing drops: got %v, want core.ErrCorrupt", err)
	}
	restored, skipped, err := s2.RestoreSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 || skipped != 1 {
		t.Fatalf("disagreeing drops: restored %d / skipped %d, want 0 / 1", restored, skipped)
	}
	if err := s2.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	if st := s2.RegistryStats(); st.Fits != 1 || st.Restores != 0 {
		t.Errorf("fits=%d restores=%d, want 1/0 (refit)", st.Fits, st.Restores)
	}
}

// TestSnapshotRestoresShareOneSanitizedSuite: every pipeline a server
// builds on its suite — warmup fits, cold fits, drift refits and restores,
// eager or lazy — shares one core.References, sanitized on first use (not
// at boot) and only once.
func TestSnapshotRestoresShareOneSanitizedSuite(t *testing.T) {
	dir := t.TempDir()
	other := Key{Selection: "Pearson", Metric: testMetric, Model: testModel}
	third := Key{Selection: testSelection, Metric: testMetric, Model: "SVM"}
	fourth := Key{Selection: "Pearson", Metric: testMetric, Model: "SVM"}
	s0 := newTestServer(t, Config{SnapshotDir: dir})
	if err := s0.Warmup(cheapKey(), other); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{SnapshotDir: dir, RegistryCap: 2})
	if s.suite.sanitized != nil {
		t.Fatal("boot sanitized the suite")
	}
	if restored, skipped, err := s.RestoreSnapshots(); err != nil || restored != 2 || skipped != 0 {
		t.Fatalf("restored %d / skipped %d (err %v), want 2 / 0", restored, skipped, err)
	}
	shared := s.suite.sanitized
	if shared == nil {
		t.Fatal("restores left the suite unsanitized")
	}
	refsOf := func(srv *Server, k Key) *core.References {
		t.Helper()
		p, err := srv.registry.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		return p.References()
	}

	// A warmup fit of a key no snapshot holds evicts a restored key (the
	// registry holds two); getting that one back restores it lazily, a
	// fourth key fits cold, and a drift refit trains cheapKey again.
	if err := s.Warmup(third); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{third, cheapKey(), other, fourth} {
		if refsOf(s, k) != shared {
			t.Fatalf("%s was not built on the shared references", k)
		}
	}
	if err := s.registry.Refit(cheapKey()).Wait(); err != nil {
		t.Fatal(err)
	}
	if refsOf(s, cheapKey()) != shared {
		t.Fatal("the drift refit was not built on the shared references")
	}
	if st := s.RegistryStats(); st.Fits != 2 || st.Refits != 1 || st.Restores < 3 {
		t.Fatalf("fits=%d refits=%d restores=%d, want 2 fits, 1 refit and at least 3 restores", st.Fits, st.Refits, st.Restores)
	}

	// Concurrent lazy restores on a cold sibling share one sanitize too.
	s3 := newTestServer(t, Config{SnapshotDir: dir})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := s3.registry.Get([]Key{cheapKey(), other}[g%2]); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if st := s3.RegistryStats(); st.Restores != 2 || st.Fits != 0 {
		t.Fatalf("concurrent lazy restores: %d restores, %d fits, want 2/0", st.Restores, st.Fits)
	}
	if a, b := refsOf(s3, cheapKey()), refsOf(s3, other); a == nil || a != b || a != s3.suite.sanitized {
		t.Fatal("concurrent lazy restores do not share one sanitized suite")
	}

	// So do concurrent cold fits of distinct keys, snapshots or not.
	s4 := newTestServer(t, Config{})
	keys := []Key{cheapKey(), other, third, fourth}
	for _, k := range keys {
		wg.Add(1)
		go func(k Key) {
			defer wg.Done()
			if _, err := s4.registry.Get(k); err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()
	for _, k := range keys {
		if r := refsOf(s4, k); r == nil || r != s4.suite.sanitized {
			t.Fatalf("concurrent cold fit of %s was not built on the shared references", k)
		}
	}
	if st := s4.RegistryStats(); st.Fits != 4 {
		t.Fatalf("concurrent cold fits: %d fits, want 4", st.Fits)
	}
}

// TestHealthPayloadsCarrySnapshotStatus asserts the probe endpoints let a
// router distinguish cold from warm instances: restore_pending flips once
// RestoreSnapshots runs, and writes/restores are visible.
func TestHealthPayloadsCarrySnapshotStatus(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{SnapshotDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var probe probeJSON
	_, body := get(t, ts.URL+"/readyz")
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Snapshots == nil || !probe.Snapshots.Enabled || !probe.Snapshots.RestorePending {
		t.Fatalf("pre-restore readyz payload: %s", body)
	}
	if probe.Status != "restoring snapshots" {
		t.Errorf("pre-restore status %q, want \"restoring snapshots\"", probe.Status)
	}

	if _, _, err := s.RestoreSnapshots(); err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(cheapKey()); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts.URL+"/healthz")
	if err := json.Unmarshal(body, &probe); err != nil {
		t.Fatal(err)
	}
	sn := probe.Snapshots
	if sn == nil || sn.RestorePending || sn.Written != 1 || sn.LastSnapshotUnix == 0 {
		t.Errorf("post-warmup healthz snapshot status: %s", body)
	}

	// Without a snapshot dir the section is omitted entirely.
	s2 := newTestServer(t, Config{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, body = get(t, ts2.URL+"/healthz")
	if bytes.Contains(body, []byte("snapshots")) {
		t.Errorf("healthz without durability mentions snapshots: %s", body)
	}
}

// TestRetryAfterJitter asserts 429 responses carry a jittered Retry-After
// in [1,3] (not the old constant 1), that the jitter is deterministic for
// a fixed seed, and that tests can inject their own source.
func TestRetryAfterJitter(t *testing.T) {
	a := newAdmission(1, 42)
	b := newAdmission(1, 42)
	var seqA, seqB []string
	for i := 0; i < 16; i++ {
		seqA = append(seqA, a.retryAfter())
		seqB = append(seqB, b.retryAfter())
	}
	if strings.Join(seqA, ",") != strings.Join(seqB, ",") {
		t.Errorf("same seed produced different jitter:\n%v\nvs\n%v", seqA, seqB)
	}
	distinct := map[string]bool{}
	for _, v := range seqA {
		distinct[v] = true
		if v != "1" && v != "2" && v != "3" {
			t.Errorf("Retry-After %q outside [1,3]", v)
		}
	}
	if len(distinct) < 2 {
		t.Errorf("no jitter: every Retry-After was %v", seqA)
	}
	c := newAdmission(1, 7)
	c.jitterHook = func() int { return 9 }
	if got := c.retryAfter(); got != "9" {
		t.Errorf("injected source ignored: got %q", got)
	}
}

// TestRejectedRequestCarriesJitteredRetryAfter exercises the jitter
// through the HTTP surface: a queue whose only slot is held in flight
// answers 429 with an injected deterministic Retry-After. (An oversize
// batch would be the wrong probe here — that is a permanent condition
// and answers 413 with no Retry-After at all.)
func TestRejectedRequestCarriesJitteredRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{QueueSlots: 1})
	s.adm.jitterHook = func() int { return 2 }
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
	<-admitted // the queue's single slot is held in flight

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want injected \"2\"", got)
	}

	close(unblock)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
