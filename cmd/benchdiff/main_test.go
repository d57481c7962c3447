package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, ns, bytes, allocs, ok := parseBenchLine(
		"BenchmarkDTWDistance/windowed_dependent-8   \t    1000\t   1234.5 ns/op\t  2048 B/op\t      12 allocs/op")
	if !ok {
		t.Fatal("line should parse")
	}
	if name != "BenchmarkDTWDistance/windowed_dependent-8" || ns != 1234.5 || bytes != 2048 || allocs != 12 {
		t.Fatalf("got %q ns=%v B=%v allocs=%v", name, ns, bytes, allocs)
	}

	name, ns, bytes, allocs, ok = parseBenchLine("BenchmarkPlain-4\t500\t99 ns/op")
	if !ok || ns != 99 || bytes != -1 || allocs != -1 {
		t.Fatalf("no-benchmem line: ok=%v ns=%v B=%v allocs=%v", ok, ns, bytes, allocs)
	}
	_ = name

	for _, bad := range []string{
		"ok  \twpred/internal/distance\t0.004s",
		"PASS",
		"goos: linux",
		"BenchmarkBroken-8 not a number ns/op",
	} {
		if _, _, _, _, ok := parseBenchLine(bad); ok {
			t.Fatalf("line %q should not parse", bad)
		}
	}
}

func TestAllocRegressed(t *testing.T) {
	cases := []struct {
		name     string
		old, cur float64
		want     bool
		desc     string
	}{
		{"no benchmem old", -1, 5, false, ""},
		{"no benchmem new", 5, -1, false, ""},
		{"improvement", 10, 8, false, ""},
		{"unchanged", 10, 10, false, ""},
		{"both zero", 0, 0, false, ""},
		{"zero baseline gains alloc", 0, 1, true, "0→1"},
		{"under threshold", 100, 110, false, ""},
		{"over threshold", 100, 150, true, "+50.0%"},
	}
	for _, c := range cases {
		bad, desc := allocRegressed(c.old, c.cur, 20)
		if bad != c.want || desc != c.desc {
			t.Errorf("%s: allocRegressed(%v, %v, 20) = (%v, %q), want (%v, %q)",
				c.name, c.old, c.cur, bad, desc, c.want, c.desc)
		}
	}
}

func TestBytesRegressed(t *testing.T) {
	cases := []struct {
		name     string
		old, cur float64
		want     bool
		desc     string
	}{
		{"no benchmem old", -1, 500, false, ""},
		{"no benchmem new", 500, -1, false, ""},
		{"improvement", 1000, 800, false, ""},
		{"unchanged", 1000, 1000, false, ""},
		{"small baseline small growth", 0, 64, false, ""},
		{"small baseline big growth", 0, 200, true, "0→200 B"},
		{"small baseline just under floor", 48, 112, false, ""},
		{"small baseline over floor", 48, 113, true, "48→113 B"},
		{"under threshold", 1000, 1100, false, ""},
		{"over threshold", 1000, 1500, true, "+50.0%"},
	}
	for _, c := range cases {
		bad, desc := bytesRegressed(c.old, c.cur, 20)
		if bad != c.want || desc != c.desc {
			t.Errorf("%s: bytesRegressed(%v, %v, 20) = (%v, %q), want (%v, %q)",
				c.name, c.old, c.cur, bad, desc, c.want, c.desc)
		}
	}
}

// TestRunDiffBytesGate runs the full diff path: flat ns/op and allocs/op
// but B/op growing past the threshold must fail the gate.
func TestRunDiffBytesGate(t *testing.T) {
	dir := t.TempDir()
	writeSnap := func(name string, bytes float64) string {
		p := filepath.Join(dir, name)
		s := Snapshot{Benchmarks: map[string]Result{
			"BenchmarkFit-8": {Samples: 6, NsPerOp: 1000, BPerOp: bytes, AllocsPerOp: 10},
		}}
		data, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := writeSnap("old.json", 1000)
	newPath := writeSnap("new.json", 1500)

	if err := runDiff(oldPath, newPath, 20); err == nil {
		t.Fatal("B/op growing 50% must fail the gate")
	} else if !strings.Contains(err.Error(), "bytes +50.0%") {
		t.Fatalf("error should name the byte regression, got: %v", err)
	}
	if err := runDiff(oldPath, newPath, 0); err != nil {
		t.Fatalf("threshold 0 is report-only, got: %v", err)
	}
	if err := runDiff(oldPath, oldPath, 20); err != nil {
		t.Fatalf("identical snapshots must pass, got: %v", err)
	}
}

// TestRunDiffAllocGate runs the full diff path: a benchmark whose ns/op is
// flat but whose allocs/op grew from zero must fail the -threshold gate.
func TestRunDiffAllocGate(t *testing.T) {
	dir := t.TempDir()
	writeSnap := func(name string, allocs float64) string {
		p := filepath.Join(dir, name)
		s := Snapshot{Benchmarks: map[string]Result{
			"BenchmarkFit-8": {Samples: 6, NsPerOp: 1000, BPerOp: 0, AllocsPerOp: allocs},
		}}
		data, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := writeSnap("old.json", 0)
	newPath := writeSnap("new.json", 3)

	if err := runDiff(oldPath, newPath, 20); err == nil {
		t.Fatal("zero-alloc baseline gaining 3 allocs/op must fail the gate")
	} else if !strings.Contains(err.Error(), "allocs 0→3") {
		t.Fatalf("error should name the alloc regression, got: %v", err)
	}
	if err := runDiff(oldPath, newPath, 0); err != nil {
		t.Fatalf("threshold 0 is report-only, got: %v", err)
	}
	if err := runDiff(oldPath, oldPath, 20); err != nil {
		t.Fatalf("identical snapshots must pass, got: %v", err)
	}
}

// TestRunDiffMissingBaselineFails: with a threshold, a baseline entry the
// run does not report fails the gate instead of passing as "gone" — the
// failure mode of a run whose names carry a -N suffix the baseline lacks.
func TestRunDiffMissingBaselineFails(t *testing.T) {
	dir := t.TempDir()
	writeSnap := func(name string, benches ...string) string {
		p := filepath.Join(dir, name)
		s := Snapshot{Benchmarks: map[string]Result{}}
		for _, b := range benches {
			s.Benchmarks[b] = Result{Samples: 3, NsPerOp: 1000, BPerOp: 0, AllocsPerOp: 0}
		}
		data, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	baseline := writeSnap("baseline.json", "BenchmarkFitGBM", "BenchmarkFitMLP")
	suffixed := writeSnap("suffixed.json", "BenchmarkFitGBM-2", "BenchmarkFitMLP-2")
	partial := writeSnap("partial.json", "BenchmarkFitGBM")
	extra := writeSnap("extra.json", "BenchmarkFitGBM", "BenchmarkFitMLP", "BenchmarkFitNew")

	err := runDiff(baseline, suffixed, 20)
	if err == nil {
		t.Fatal("a run matching no baseline name must fail the gate")
	}
	if !strings.Contains(err.Error(), "2 baseline benchmark(s) missing") || !strings.Contains(err.Error(), "BenchmarkFitMLP") {
		t.Fatalf("error should name the missing entries, got: %v", err)
	}
	if err := runDiff(baseline, partial, 20); err == nil || !strings.Contains(err.Error(), "BenchmarkFitMLP") {
		t.Fatalf("one missing entry must fail the gate, got: %v", err)
	}
	if err := runDiff(baseline, suffixed, 0); err != nil {
		t.Fatalf("threshold 0 is report-only, got: %v", err)
	}
	if err := runDiff(baseline, extra, 20); err != nil {
		t.Fatalf("a benchmark new in the run must not fail the gate, got: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if got := medianOr(nil, -1); got != -1 {
		t.Fatalf("empty fallback = %v", got)
	}
}
