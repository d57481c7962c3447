package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/core"
	"wpred/internal/featsel"
	"wpred/internal/telemetry"
)

var (
	suiteOnce sync.Once
	suiteRefs []*telemetry.Experiment
)

// testRefs simulates a small reference suite shared read-only by the tests.
func testRefs(t *testing.T) []*telemetry.Experiment {
	t.Helper()
	suiteOnce.Do(func() {
		skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
		suiteRefs = bench.GenerateSuite(bench.Standard()[:3], skus, []int{4}, 2, telemetry.NewSource(42))
	})
	if len(suiteRefs) == 0 {
		t.Fatal("suite generation produced no experiments")
	}
	return suiteRefs
}

// testSnapshot trains a cheap pipeline and wraps its state in a snapshot.
func testSnapshot(t *testing.T) (*Snapshot, *core.Pipeline, core.Config) {
	t.Helper()
	refs := testRefs(t)
	cfg := core.Config{Seed: 42}
	p, err := core.TrainPipeline(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := SuiteHash(refs)
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{
		Selection: "RFE LogReg", Metric: "L2,1", Model: "SVM",
		Seed: 42, TopK: 7, Subsamples: 10,
		RefsHash: hash, CreatedUnix: 1754600000,
		State: st,
	}, p, cfg
}

// TestEncodeDecodeRoundTrip locks in the durability contract: a snapshot
// decodes to a state whose pipeline, restored onto the same suite,
// predicts byte-identically to the original, and the snapshot identity
// fields survive verbatim.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap, orig, cfg := testSnapshot(t)
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Selection != snap.Selection || got.Metric != snap.Metric || got.Model != snap.Model ||
		got.Seed != snap.Seed || got.TopK != snap.TopK || got.Subsamples != snap.Subsamples ||
		got.RefsHash != snap.RefsHash || got.CreatedUnix != snap.CreatedUnix {
		t.Errorf("identity fields did not round-trip: %+v vs %+v", got, snap)
	}
	if !reflect.DeepEqual(got.State, snap.State) {
		t.Fatalf("state did not round-trip: %+v vs %+v", got.State, snap.State)
	}

	restored, err := core.Restore(cfg, core.SanitizeReferences(testRefs(t), cfg.Sanitize), got.State)
	if err != nil {
		t.Fatal(err)
	}
	target := []*telemetry.Experiment{testRefs(t)[0]}
	toSKU := telemetry.SKU{CPUs: 4, MemoryGB: 32}
	p1, _, err := orig.PredictWithReport(target, toSKU)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := restored.PredictWithReport(target, toSKU)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(p1)
	b2, _ := json.Marshal(p2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("decoded snapshot predicts differently:\n%s\nvs\n%s", b1, b2)
	}
}

// TestDecodeRejectsCorruption flips or removes bytes at every interesting
// position and asserts the decoder answers with ErrCorrupt each time —
// never a nil error and never a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x01
		return out
	}
	nl := bytes.IndexByte(valid, '\n')
	cases := map[string][]byte{
		"empty":               {},
		"no newline":          valid[:nl],
		"magic flipped":       flip(valid, 0),
		"checksum flipped":    flip(valid, nl-1),
		"payload flipped":     flip(valid, nl+10),
		"last byte flipped":   flip(valid, len(valid)-1),
		"truncated payload":   valid[:len(valid)/2],
		"truncated header":    valid[:8],
		"trailing garbage":    append(append([]byte(nil), valid...), "junk"...),
		"header only":         valid[:nl+1],
		"garbage":             []byte("not a snapshot at all\n{}"),
		"valid header no sum": []byte("wpredsnap v2\n{}"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Decode(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("corrupt input decoded cleanly: %+v", s)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeRejectsFutureVersion asserts a higher format version fails
// with ErrVersion (not ErrCorrupt), so operators can tell "roll forward"
// from "disk rot". So does a v1 file, which embedded the reference suite:
// its key refits.
func TestDecodeRejectsFutureVersion(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(), []byte("wpredsnap v2 "), []byte("wpredsnap v3 "), 1)
	if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: got %v, want ErrVersion", err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(v1)); !errors.Is(err, ErrVersion) {
		t.Errorf("v1 file: got %v, want ErrVersion", err)
	}
}

// TestEncodeDefaultSuiteSize: a snapshot over wpredd's default reference
// suite (5 workloads × 4 SKUs × 3 runs) holds no reference experiments, so
// it encodes to 64 KB or less — even with every reference dropped.
func TestEncodeDefaultSuiteSize(t *testing.T) {
	var skus []telemetry.SKU
	for _, c := range []int{2, 4, 8, 16} {
		skus = append(skus, telemetry.SKU{CPUs: c, MemoryGB: 8 * c})
	}
	refs := bench.GenerateSuite(bench.Standard(), skus, []int{8}, 3, telemetry.NewSource(42))
	cfg := core.Config{Seed: 42, Selection: featsel.VarianceThreshold{}}
	p, err := core.TrainPipeline(cfg, refs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := SuiteHash(refs)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		Selection: "Variance", Metric: "L2,1", Model: "SVM", Seed: 42,
		RefsHash: hash, CreatedUnix: 1754600000, State: st,
	}
	const limit = 64 << 10
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > limit {
		t.Errorf("default-suite snapshot is %d bytes, want <= %d", buf.Len(), limit)
	}

	// Worst case: every reference dropped, with its full report.
	for _, e := range refs {
		snap.State.Dropped = append(snap.State.Dropped, core.DroppedExperiment{
			ID: e.ID(), Workload: e.Workload, Stage: "train",
			Report: &telemetry.CorruptionReport{ID: e.ID(), Ticks: 1 << 20, RejectReason: "only 0 of 1048576 ticks valid"},
		})
	}
	buf.Reset()
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > limit {
		t.Errorf("snapshot dropping the whole default suite is %d bytes, want <= %d", buf.Len(), limit)
	}
}

// TestStoreSaveLoad exercises the directory store: atomic save, per-key
// load, LoadAll ordering, and the not-found sentinel.
func TestStoreSaveLoad(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	st := NewStore(filepath.Join(t.TempDir(), "snaps"))

	if _, err := st.Load(snap.Selection, snap.Metric, snap.Model); !errors.Is(err, ErrNotFound) {
		t.Fatalf("load before save: got %v, want ErrNotFound", err)
	}
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(snap.Selection, snap.Metric, snap.Model)
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyString() != snap.KeyString() {
		t.Errorf("loaded key %q, want %q", got.KeyString(), snap.KeyString())
	}

	// A second key becomes a second file; LoadAll returns both.
	other := *snap
	other.Model = "Regression"
	if err := st.Save(&other); err != nil {
		t.Fatal(err)
	}
	// Overwriting a key keeps one file.
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	snaps, errs := st.LoadAll()
	if len(errs) != 0 {
		t.Fatalf("LoadAll errors: %v", errs)
	}
	if len(snaps) != 2 {
		t.Fatalf("LoadAll returned %d snapshots, want 2", len(snaps))
	}

	// No temp files left behind.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ext) {
			t.Errorf("stray file %s left in store", e.Name())
		}
	}
}

// TestFailedWriteKeepsPreviousFile: a save whose write fails leaves the
// previous file loadable and no temp file behind, for a snapshot (whose
// encoder refuses an empty state) and for the drift-state file, which
// wpredd writes through the same WriteFile.
func TestFailedWriteKeepsPreviousFile(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	st := NewStore(t.TempDir())
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	broken := *snap
	broken.State = core.PipelineState{}
	if err := st.Save(&broken); err == nil {
		t.Fatal("saving a snapshot with an empty state succeeded")
	}
	got, err := st.Load(snap.Selection, snap.Metric, snap.Model)
	if err != nil {
		t.Fatalf("the previous snapshot no longer loads: %v", err)
	}
	if !reflect.DeepEqual(got.State.Selected, snap.State.Selected) {
		t.Errorf("loaded features %v, want the previous snapshot's %v", got.State.Selected, snap.State.Selected)
	}

	const name = "drift_state.json"
	good := []byte(`{"keys":{}}`)
	if err := st.WriteFile(name, func(w io.Writer) error { _, err := w.Write(good); return err }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err = st.WriteFile(name, func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"keys":`)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	if raw, err := os.ReadFile(filepath.Join(st.Dir(), name)); err != nil || !bytes.Equal(raw, good) {
		t.Fatalf("drift state after a failed write: %q (%v), want the previous %q", raw, err, good)
	}

	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != name && !strings.HasSuffix(e.Name(), ext) {
			t.Errorf("stray file %s left in store", e.Name())
		}
	}
	if len(entries) != 2 {
		t.Errorf("store holds %d files, want the snapshot and the drift state", len(entries))
	}
}

// TestLoadAllSkipsCorruptFiles plants a corrupt snapshot beside a good one
// and asserts the good one still loads while the bad one is reported — a
// single rotten file must not prevent warm restart.
func TestLoadAllSkipsCorruptFiles(t *testing.T) {
	snap, _, _ := testSnapshot(t)
	st := NewStore(t.TempDir())
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), "rotten"+ext), []byte("wpredsnap v2 zz\n{"), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, errs := st.LoadAll()
	if len(snaps) != 1 {
		t.Errorf("got %d good snapshots, want 1", len(snaps))
	}
	if len(errs) != 1 || !errors.Is(errs[0], ErrCorrupt) {
		t.Errorf("corrupt file not reported as ErrCorrupt: %v", errs)
	}
}

// TestSuiteHashOrderIndependent asserts the suite hash ignores load order
// but catches any value change.
func TestSuiteHashOrderIndependent(t *testing.T) {
	refs := testRefs(t)
	h1, err := SuiteHash(refs)
	if err != nil {
		t.Fatal(err)
	}
	rev := make([]*telemetry.Experiment, len(refs))
	for i, e := range refs {
		rev[len(refs)-1-i] = e
	}
	h2, err := SuiteHash(rev)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash depends on order: %s vs %s", h1, h2)
	}
	mutated := refs[0].Clone()
	mutated.Throughput++
	h3, err := SuiteHash(append([]*telemetry.Experiment{mutated}, refs[1:]...))
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("hash missed a value change")
	}
}

// TestEncodeRejectsEmptyState asserts Encode refuses to write a snapshot
// that could never restore.
func TestEncodeRejectsEmptyState(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Snapshot{Selection: "a", Metric: "b", Model: "c"}); err == nil {
		t.Error("encoding an empty state should fail")
	}
}

// TestStorePathStable pins the content-addressed file naming: two daemons
// sharing a directory must agree on the file for a key.
func TestStorePathStable(t *testing.T) {
	a := NewStore("/x").Path("RFE LogReg", "L2,1", "SVM")
	b := NewStore("/x").Path("RFE LogReg", "L2,1", "SVM")
	if a != b {
		t.Errorf("path not stable: %s vs %s", a, b)
	}
	c := NewStore("/x").Path("RFE LogReg", "L2,1", "Regression")
	if a == c {
		t.Error("distinct keys share a path")
	}
	if fmt.Sprintf("%s", filepath.Ext(a)) != ext {
		t.Errorf("path %s missing %s suffix", a, ext)
	}
}
