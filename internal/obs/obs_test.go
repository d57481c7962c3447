package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.", Labels{"kind": "read"})
	c.Add(3)
	r.Counter("test_ops_total", "Operations.", Labels{"kind": "write"}).Inc()
	g := r.Gauge("test_depth", "Queue depth.", nil)
	g.Set(4)
	g.Add(-1.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 2.5
# HELP test_ops_total Operations.
# TYPE test_ops_total counter
test_ops_total{kind="read"} 3
test_ops_total{kind="write"} 1
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1}, nil)
	for _, v := range []float64{0.05, 0.1, 0.5, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got != 3.65 {
		t.Fatalf("sum = %v, want 3.65", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 3.65
test_latency_seconds_count 4
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
}

func TestGetOrCreateReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "", Labels{"x": "1"})
	b := r.Counter("same_total", "", Labels{"x": "1"})
	if a != b {
		t.Fatal("same (name, labels) must return the same series")
	}
	if c := r.Counter("same_total", "", Labels{"x": "2"}); c == a {
		t.Fatal("different labels must return a different series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("clash", "", nil)
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "", Labels{"k": "a\"b\\c\nd"}).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("unescaped label value in %q", b.String())
	}
}

func TestMetricsConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "", nil)
	g := r.Gauge("conc_gauge", "", nil)
	h := r.Histogram("conc_hist", "", DefBuckets, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d g=%v h=%d", c.Value(), g.Value(), h.Count())
	}
}

func TestSpansRecordedOnlyWhenEnabled(t *testing.T) {
	ResetTrace()
	prev := SetTracing(false)
	defer SetTracing(prev)

	off := StartSpan("off")
	if d := off.End(); d < 0 {
		t.Fatal("End must measure even when tracing is off")
	}
	if spans, _ := TakeTrace(); len(spans) != 0 {
		t.Fatalf("recorded %d spans while disabled", len(spans))
	}

	SetTracing(true)
	root := StartSpan("root")
	root.SetAttr("k", "v")
	child := root.Child("child")
	time.Sleep(time.Millisecond)
	child.End()
	child.End() // idempotent: must not double-record
	root.End()

	spans, dropped := TakeTrace()
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("got %d spans (%d dropped), want 2", len(spans), dropped)
	}
	// End order: child first, then root.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, want root id %d", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Attrs["k"] != "v" {
		t.Fatalf("root attrs = %v", spans[1].Attrs)
	}
	if spans[0].DurationNanos <= 0 {
		t.Fatal("child duration must be positive")
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	s.SetAttr("a", "b")
	if d := s.End(); d != 0 {
		t.Fatalf("nil End = %v", d)
	}
	if c := s.Child("c"); c == nil || c.parent != 0 {
		t.Fatal("nil Child must start a root span")
	}
}

func TestWriteTraceJSON(t *testing.T) {
	ResetTrace()
	prev := SetTracing(true)
	defer func() { SetTracing(prev); ResetTrace() }()
	sp := StartSpan("stage")
	sp.SetAttr("n", "7")
	sp.End()

	var b strings.Builder
	if err := WriteTraceJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "stage" || doc.Spans[0].Attrs["n"] != "7" {
		t.Fatalf("round-trip mismatch: %+v", doc.Spans)
	}
	// Snapshot must not clear.
	if spans, _ := TakeTrace(); len(spans) != 1 {
		t.Fatal("WriteTraceJSON must not clear the buffer")
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	GetCounter("obs_test_served_total", "Test counter.", nil).Inc()
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "obs_test_served_total 1") {
		t.Fatalf("/metrics missing test counter:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
	if body := get("/debug/pprof/heap?debug=1"); body == "" {
		t.Fatal("empty heap profile")
	}
}

func TestHistogramRejectsNonFinite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_guard_seconds", "Guarded.", []float64{1, 10}, nil)
	h.Observe(2)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.Observe(v)
	}
	h.Observe(0.5)

	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2 (non-finite observations must not count)", got)
	}
	if got := h.Sum(); got != 2.5 || math.IsNaN(got) {
		t.Fatalf("sum = %v, want 2.5 (a NaN observation must not poison the sum)", got)
	}
	if got := h.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	_, counts := h.Buckets()
	if counts[len(counts)-1] != 0 {
		t.Fatalf("+Inf bucket = %d, want 0 (non-finite values must not land there)", counts[len(counts)-1])
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q_seconds", "Quantiles.", []float64{1, 2, 4, 8}, nil)
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %v, want NaN", q)
	}
	// 100 observations spread 25 per bucket across (0,1], (1,2], (2,4], (4,8].
	for i := 0; i < 25; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(3)
		h.Observe(6)
	}
	cases := []struct{ q, want float64 }{
		{0, 0},     // first bucket interpolates from 0
		{0.25, 1},  // exactly the first bound
		{0.5, 2},   // exactly the second bound
		{0.75, 4},  // exactly the third bound
		{0.875, 6}, // halfway through (4,8]
		{1, 8},     // top finite bound
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	h.Observe(100) // +Inf bucket: quantiles there clamp to the top bound
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("Quantile(1) with +Inf mass = %v, want 8", got)
	}
}

// TestRequestCounterAllocatesNothing: once a handler has counted a status
// code, counting another request with that code allocates nothing, and
// every request lands on the one series the registry holds for it.
func TestRequestCounterAllocatesNothing(t *testing.T) {
	series := GetCounter("wpred_http_requests_total", "",
		Labels{"handler": "alloc_test", "code": "422"})
	before := series.Value()
	c := &codeCounters{handler: "alloc_test", byCode: map[int]*Counter{}}
	c.get(422).Inc()
	if allocs := testing.AllocsPerRun(100, func() { c.get(422).Inc() }); allocs != 0 {
		t.Fatalf("counting a seen code allocates %v times per request, want 0", allocs)
	}
	if n := series.Value() - before; series != c.get(422) || n != 102 {
		t.Fatalf("the cached counter is not the registry's series (%d increments, want 102)", n)
	}
}
