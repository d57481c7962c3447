package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wpred"
)

// runOnce executes the CLI output path with captured streams.
func runOnce(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestStdoutByteIdenticalAcrossRuns is the CLI determinism guarantee: two
// runs with identical flags must produce byte-identical stdout. Before the
// reference-distance table was sorted, Go map iteration order reshuffled
// it run to run.
func TestStdoutByteIdenticalAcrossRuns(t *testing.T) {
	args := []string{"-workload", "YCSB", "-from", "2", "-to", "4", "-terminals", "4", "-seed", "7"}
	a, _, codeA := runOnce(t, args...)
	b, _, codeB := runOnce(t, args...)
	if codeA != 0 || codeB != 0 {
		t.Fatalf("exit codes %d, %d", codeA, codeB)
	}
	if a != b {
		t.Fatalf("stdout differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "reference distances:") {
		t.Fatalf("missing distance table:\n%s", a)
	}
}

// TestDistancesSortedAscending checks the printed table ordering: ascending
// distance, name-tie-broken.
func TestDistancesSortedAscending(t *testing.T) {
	out, _, code := runOnce(t, "-workload", "YCSB", "-from", "2", "-to", "4", "-terminals", "4")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(out, "\n")
	var dists []float64
	inTable := false
	for _, l := range lines {
		if l == "reference distances:" {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(l, "  ") {
			break
		}
		fields := strings.Fields(l)
		if len(fields) != 2 {
			t.Fatalf("malformed distance line %q", l)
		}
		d, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("distance %q: %v", fields[1], err)
		}
		dists = append(dists, d)
	}
	if len(dists) < 2 {
		t.Fatalf("expected several distance rows, got %d:\n%s", len(dists), out)
	}
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1] {
			t.Fatalf("distances not ascending at row %d: %v", i, dists)
		}
	}
}

// TestSortedByDistanceTieBreak duplicates a reference workload under a
// second name, so both sit at exactly the same distance from the target,
// and checks the printed table lists the tied pair adjacently in name
// order on every prediction.
func TestSortedByDistanceTieBreak(t *testing.T) {
	small, large := wpred.SKU{CPUs: 2, MemoryGB: 16}, wpred.SKU{CPUs: 4, MemoryGB: 32}
	src := wpred.NewSource(7)
	var refWLs []*wpred.Workload
	for _, w := range wpred.ReferenceWorkloads() {
		if w.Name != "YCSB" {
			refWLs = append(refWLs, w)
		}
	}
	refs := wpred.GenerateSuite(refWLs, []wpred.SKU{small, large}, []int{4}, 3, src)
	for _, e := range refs {
		if e.Workload == "TPC-C" {
			c := e.Clone()
			c.Workload = "TPC-C copy"
			refs = append(refs, c)
		}
	}
	p, err := wpred.TrainPipeline(wpred.PipelineConfig{Seed: 7}, refs)
	if err != nil {
		t.Fatal(err)
	}
	target, err := wpred.WorkloadByName("YCSB")
	if err != nil {
		t.Fatal(err)
	}
	targetExps := wpred.GenerateSuite([]*wpred.Workload{target}, []wpred.SKU{small}, []int{4}, 3, src)

	var first string
	for i := 0; i < 20; i++ {
		pred, _, err := p.PredictWithReport(targetExps, large)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		printDistances(&out, pred.Distances)
		// Each row is "  <name> <distance>"; names may contain spaces.
		rows := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")[1:]
		names := make([]string, len(rows))
		dists := make([]string, len(rows))
		for j, r := range rows {
			cut := strings.LastIndexByte(r, ' ')
			names[j], dists[j] = strings.TrimSpace(r[:cut]), r[cut+1:]
		}
		orig := slices.Index(names, "TPC-C")
		if orig < 0 || orig+1 >= len(names) || names[orig+1] != "TPC-C copy" {
			t.Fatalf("tied references not adjacent in name order:\n%s", out.String())
		}
		if dists[orig] != dists[orig+1] {
			t.Fatalf("duplicated references are not tied: %q vs %q", rows[orig], rows[orig+1])
		}
		if first == "" {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("call %d printed a different table:\n%s\nfirst:\n%s", i, out.String(), first)
		}
	}
}

// TestPrintComparisonGuards covers the NaN/Inf bug: an empty ground-truth
// suite or zero mean throughput must skip the comparison line with a
// stderr warning instead of printing NaN/+Inf.
func TestPrintComparisonGuards(t *testing.T) {
	sku := wpred.SKU{CPUs: 4, MemoryGB: 32}

	var out, errb bytes.Buffer
	printComparison(&out, &errb, sku, nil, 100)
	if out.Len() != 0 {
		t.Fatalf("empty suite must print nothing to stdout, got %q", out.String())
	}
	if !strings.Contains(errb.String(), "warning") {
		t.Fatalf("empty suite must warn on stderr, got %q", errb.String())
	}

	out.Reset()
	errb.Reset()
	zero := []*wpred.Experiment{{Workload: "X", Throughput: 0}, {Workload: "X", Throughput: 0}}
	printComparison(&out, &errb, sku, zero, 100)
	if out.Len() != 0 {
		t.Fatalf("zero-mean suite must print nothing to stdout, got %q", out.String())
	}
	if !strings.Contains(errb.String(), "warning") {
		t.Fatalf("zero-mean suite must warn on stderr, got %q", errb.String())
	}

	out.Reset()
	errb.Reset()
	ok := []*wpred.Experiment{{Workload: "X", Throughput: 50}, {Workload: "X", Throughput: 150}}
	printComparison(&out, &errb, sku, ok, 100)
	s := out.String()
	if !strings.Contains(s, "prediction error 0.0%") {
		t.Fatalf("healthy suite comparison = %q", s)
	}
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Fatalf("non-finite value leaked: %q", s)
	}
}

// TestStdoutUnchangedWithObservability asserts the instrumentation
// contract at the CLI level: enabling -debug-addr and -trace-out leaves
// stdout byte-identical, and the trace file is valid JSON with pipeline
// spans.
func TestStdoutUnchangedWithObservability(t *testing.T) {
	args := []string{"-workload", "YCSB", "-from", "2", "-to", "4", "-terminals", "4", "-seed", "7"}
	plain, _, code := runOnce(t, args...)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}

	traceFile := filepath.Join(t.TempDir(), "spans.json")
	instrumented, stderrText, code := runOnce(t,
		append([]string{"-debug-addr", "127.0.0.1:0", "-trace-out", traceFile}, args...)...)
	if code != 0 {
		t.Fatalf("instrumented exit code %d, stderr:\n%s", code, stderrText)
	}
	if instrumented != plain {
		t.Fatalf("stdout changed with instrumentation on:\n--- plain ---\n%s\n--- instrumented ---\n%s", plain, instrumented)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, s := range doc.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"pipeline.train", "pipeline.predict", "sanitize", "featsel", "similarity", "scalemodel"} {
		if !names[want] {
			t.Fatalf("trace missing span %q; have %v", want, names)
		}
	}
}
