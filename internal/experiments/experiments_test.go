package experiments

import (
	"strings"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/telemetry"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "bbbb"},
		Notes:  []string{"n1"},
	}
	tb.AddRow("x", "1")
	tb.AddRow("yyyy", "22")
	out := tb.Render()
	for _, want := range []string{"T\n=", "a", "bbbb", "yyyy", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 { // title, rule, header, separator, 2 rows, note
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tb.AddRow("x", "1")
	out := tb.Markdown()
	for _, want := range []string{"### T", "| a | b |", "|---|---|", "| x | 1 |", "*n*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRunnersProduceTables(t *testing.T) {
	for _, r := range Runners() {
		if r.Tables == nil {
			t.Fatalf("%s has no table producer", r.ID)
		}
	}
	// Markdown and text renderings of a cheap experiment must both be
	// non-empty and share content.
	s := NewSuite(42)
	s.Quick = true
	r, _ := RunnerByID("appendixA")
	text, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	md, err := r.RunMarkdown(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Table 8") || !strings.Contains(md, "Table 8") {
		t.Fatal("both renderings must contain the walkthrough tables")
	}
}

func TestClassifyPattern(t *testing.T) {
	cases := []struct {
		acc  []float64
		want string
	}{
		{[]float64{0.2, 0.5, 0.8, 0.9, 0.95}, "increasing"},
		{[]float64{0.5, 0.9, 0.99, 0.97, 0.9}, "peaking"},
		{[]float64{0.9, 0.5, 0.8, 0.4, 0.7}, "inconclusive"},
		{[]float64{0.9}, "inconclusive"},
		{[]float64{0.5, 0.5, 0.5, 0.5, 0.5}, "increasing"}, // flat counts as (weakly) increasing
	}
	for _, c := range cases {
		if got := classifyPattern(c.acc); got != c.want {
			t.Fatalf("classifyPattern(%v) = %q, want %q", c.acc, got, c.want)
		}
	}
}

func TestSimilarityClass(t *testing.T) {
	if SimilarityClass(bench.TPCCName) != SimilarityClass(bench.YCSBName) {
		t.Fatal("TPC-C and YCSB share the point-lookup class")
	}
	if SimilarityClass(bench.TPCHName) != SimilarityClass(bench.PWName) {
		t.Fatal("TPC-H and PW share the scan-heavy class")
	}
	if SimilarityClass(bench.TPCCName) == SimilarityClass(bench.TPCHName) {
		t.Fatal("OLTP and DSS classes must differ")
	}
	if SimilarityClass("unknown") != "" {
		t.Fatal("unknown workloads have no class")
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(1)
	s.Quick = true
	a, err := s.Experiments([]string{bench.TPCCName}, []telemetry.SKU{SKU2}, []int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Experiments([]string{bench.TPCCName}, []telemetry.SKU{SKU2}, []int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Fatal("identical requests must be served from the cache")
	}
	c, err := s.Experiments([]string{bench.TPCCName}, []telemetry.SKU{SKU2}, []int{8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c[0] == a[0] {
		t.Fatal("different requests must not share cache entries")
	}
}

func TestSuiteQuickSettings(t *testing.T) {
	s := NewSuite(1)
	if s.Ticks() != 360 || s.Subsamples() != 10 {
		t.Fatal("full-mode defaults wrong")
	}
	s.Quick = true
	if s.Ticks() != 120 || s.Subsamples() != 5 {
		t.Fatal("quick-mode settings wrong")
	}
}

func TestRunnerRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(ids))
	}
	for _, id := range ids {
		if _, ok := RunnerByID(id); !ok {
			t.Fatalf("id %q does not resolve", id)
		}
	}
	if _, ok := RunnerByID("TABLE3"); !ok {
		t.Fatal("lookup must be case-insensitive")
	}
	if _, ok := RunnerByID("missing"); ok {
		t.Fatal("unknown id must not resolve")
	}
	if len(SortedIDs()) != len(ids) {
		t.Fatal("SortedIDs lost entries")
	}
}

// TestCheapRunnersEndToEnd executes the fast experiments in quick mode and
// verifies they produce non-empty renderings with their key claims.
func TestCheapRunnersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration is slow")
	}
	s := NewSuite(42)
	s.Quick = true
	for _, id := range []string{"figure1", "figure3", "figure8", "figure9", "figure10", "figure12", "appendixA"} {
		r, ok := RunnerByID(id)
		if !ok {
			t.Fatalf("missing runner %s", id)
		}
		out, err := r.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) < 100 {
			t.Fatalf("%s rendering suspiciously short:\n%s", id, out)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	s := NewSuite(42)
	s.Quick = true
	r, err := s.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if r.ClampedAPE >= r.LinearAPE {
		t.Fatalf("roofline clamping (APE %v) must beat plain linear (%v) beyond the knee",
			r.ClampedAPE, r.LinearAPE)
	}
}

func TestFigure1Shape(t *testing.T) {
	s := NewSuite(42)
	s.Quick = true
	r, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TxnTypes) != 6 {
		t.Fatalf("YCSB mix has %d types, want 6", len(r.TxnTypes))
	}
	meanOf := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	if meanOf(r.WorkloadAPE) >= meanOf(r.AggregatedAPE) {
		t.Fatalf("workload-level APE (%v) must beat the aggregated query-level APE (%v)",
			meanOf(r.WorkloadAPE), meanOf(r.AggregatedAPE))
	}
}

func TestFigure10Shape(t *testing.T) {
	s := NewSuite(42)
	s.Quick = true
	r, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if r.Nearest != bench.TPCCName {
		t.Fatalf("YCSB nearest = %s, want TPC-C (the paper's result)", r.Nearest)
	}
	rank := map[string]int{}
	for i, d := range r.Distances {
		rank[d.Workload] = i
		if i > 0 && d.Distance < r.Distances[i-1].Distance {
			t.Fatalf("distances not ascending at %d: %v", i, r.Distances)
		}
	}
	if rank[bench.TPCHName] <= rank[bench.TPCCName] {
		t.Fatal("TPC-H must be farther from YCSB than TPC-C")
	}
}
