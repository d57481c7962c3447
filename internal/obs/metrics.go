// Package obs is the process-wide observability layer: a metrics registry
// (counters, gauges, and histograms with fixed bucket layouts) with
// Prometheus text exposition, lightweight stage-scoped tracing spans, and
// an optional debug HTTP endpoint serving /metrics plus net/http/pprof
// profiles. It depends only on the standard library.
//
// The cardinal rule — enforced by the determinism tests — is that nothing
// in this package ever writes to stdout: metrics are pulled over HTTP,
// traces are dumped to caller-chosen files, and diagnostics go to stderr.
// Experiment output therefore stays byte-identical whether instrumentation
// is enabled or not.
//
// Metric names follow the Prometheus convention
// wpred_<subsystem>_<quantity>[_<unit>][_total]; see "Observability" in
// DESIGN.md for the full catalog. Instrumented packages register their
// series once at init via GetCounter/GetGauge/GetHistogram, so updating a
// metric on a hot path is a single atomic operation.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is the label set attached to one metric series. Series with the
// same name but different label values are distinct time series of one
// metric family and share the family's help text and type.
type Labels map[string]string

// DefBuckets is the fixed default bucket layout for duration histograms,
// in seconds: 100µs to 60s in a 1-2.5-5 progression. Stage and task
// durations in this repository span that whole range (a cached distance
// lookup to a full-suite model sweep).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing count. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value reads
// as 0; all methods are safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta (negative deltas decrement).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into a fixed, ascending bucket layout
// chosen at registration (Prometheus cumulative "le" semantics: bucket i
// counts observations <= bounds[i], plus an implicit +Inf bucket). All
// methods are safe for concurrent use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum     atomic.Uint64   // float64 bits
	n       atomic.Uint64
	dropped atomic.Uint64 // non-finite observations rejected by Observe
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation. Non-finite values (NaN, ±Inf) are
// dropped and counted instead of recorded: a single NaN would otherwise
// poison _sum permanently and land silently in the +Inf bucket, corrupting
// every later quantile and rate derived from the series.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.dropped.Add(1)
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	addFloat(&h.sum, v)
	h.n.Add(1)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Dropped returns how many non-finite observations Observe rejected.
func (h *Histogram) Dropped() uint64 { return h.dropped.Load() }

// Buckets returns the bucket upper bounds and a snapshot of the
// per-bucket counts (non-cumulative; the final count is the +Inf bucket,
// one longer than the bounds). The snapshot is not atomic across buckets:
// concurrent Observe calls may be partially visible, which quantile
// estimation over thousands of samples tolerates.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts,
// interpolating linearly inside the containing bucket the way Prometheus'
// histogram_quantile does: the first bucket interpolates from 0 when its
// upper bound is positive (from the bound itself otherwise), and a
// quantile landing in the +Inf bucket reports the highest finite bound —
// the layout cannot resolve beyond it. An empty histogram reports NaN.
func (h *Histogram) Quantile(q float64) float64 {
	_, counts := h.Buckets()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(h.bounds) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) { // +Inf bucket
			return h.bounds[len(h.bounds)-1]
		}
		hi := h.bounds[i]
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		} else if hi <= 0 {
			lo = hi
		}
		if c == 0 {
			return hi
		}
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucket/float64(c))
	}
	return h.bounds[len(h.bounds)-1]
}

// addFloat atomically adds delta to the float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type labelPair struct{ key, val string }

type series struct {
	labels string // pre-rendered `k="v",...` (no braces), sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	name, help string
	kind       kind
	bounds     []float64
	series     map[string]*series
}

// Registry is a set of metric families keyed by name. Registration is
// get-or-create: asking twice for the same (name, labels) returns the same
// series, so packages can register in var blocks without coordination.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry. Most callers use the process-wide
// Default registry instead.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry served by the debug endpoint.
func Default() *Registry { return defaultRegistry }

// Counter registers (or retrieves) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.getSeries(name, help, kindCounter, nil, labels).c
}

// Gauge registers (or retrieves) a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.getSeries(name, help, kindGauge, nil, labels).g
}

// Histogram registers (or retrieves) a histogram series with the given
// fixed bucket upper bounds (ascending; +Inf is implicit). Every series of
// one family must use the same layout.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	return r.getSeries(name, help, kindHistogram, bounds, labels).h
}

// GetCounter registers (or retrieves) a counter on the Default registry.
func GetCounter(name, help string, labels Labels) *Counter {
	return defaultRegistry.Counter(name, help, labels)
}

// GetGauge registers (or retrieves) a gauge on the Default registry.
func GetGauge(name, help string, labels Labels) *Gauge {
	return defaultRegistry.Gauge(name, help, labels)
}

// GetHistogram registers (or retrieves) a histogram on the Default registry.
func GetHistogram(name, help string, bounds []float64, labels Labels) *Histogram {
	return defaultRegistry.Histogram(name, help, bounds, labels)
}

func (r *Registry) getSeries(name, help string, k kind, bounds []float64, labels Labels) *series {
	if name == "" {
		panic("obs: empty metric name")
	}
	if k == kindHistogram && !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bucket bounds not ascending", name))
	}
	rendered := renderLabels(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{
			name: name, help: help, kind: k,
			bounds: append([]float64(nil), bounds...),
			series: map[string]*series{},
		}
		r.fams[name] = f
	} else {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as a %s", name, f.kind, k))
		}
		if k == kindHistogram && !equalBounds(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q already registered with a different bucket layout", name))
		}
	}
	s := f.series[rendered]
	if s == nil {
		s = &series{labels: rendered}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.series[rendered] = s
	}
	return s
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// renderLabels serializes a label set as `k="v",...` sorted by key, which
// doubles as the series map key and the exposition form.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	pairs := make([]labelPair, 0, len(labels))
	for k, v := range labels {
		pairs = append(pairs, labelPair{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.val))
		b.WriteByte('"')
	}
	return b.String()
}

// The exposition format's escapes: label values escape backslash, double
// quote and newline; HELP text escapes backslash and newline.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so the
// output is deterministic for a given metric state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, s.labels, "", float64(s.c.Value()))
			case kindGauge:
				writeSample(&b, f.name, s.labels, "", s.g.Value())
			case kindHistogram:
				cum := uint64(0)
				for i, bound := range f.bounds {
					cum += s.h.counts[i].Load()
					writeSample(&b, f.name+"_bucket", s.labels, `le="`+formatFloat(bound)+`"`, float64(cum))
				}
				cum += s.h.counts[len(f.bounds)].Load()
				writeSample(&b, f.name+"_bucket", s.labels, `le="+Inf"`, float64(cum))
				writeSample(&b, f.name+"_sum", s.labels, "", s.h.Sum())
				writeSample(&b, f.name+"_count", s.labels, "", float64(s.h.Count()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels, extra string, v float64) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(h string) string { return helpEscaper.Replace(h) }
