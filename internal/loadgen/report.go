package loadgen

import (
	"fmt"
	"math"
	"sort"

	"wpred/internal/obs"
)

// LatencyStats summarizes one latency histogram: quantiles interpolated
// from the obs fixed-bucket layout, plus exact mean and max tracked
// alongside.
type LatencyStats struct {
	Count   uint64  `json:"count"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
	MeanMs  float64 `json:"mean_ms"`
	Dropped uint64  `json:"dropped,omitempty"`
}

// latencyStats extracts the summary from a histogram (seconds) plus the
// exactly tracked max (seconds). NaN quantiles (empty histogram) render
// as zero so the report JSON stays valid. Bucket interpolation can place a
// quantile past the largest sample, so each quantile is clamped to the
// exact max: no reported percentile exceeds a latency actually observed.
func latencyStats(h *obs.Histogram, maxSecs float64) LatencyStats {
	ms := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v * 1000
	}
	q := func(p float64) float64 { return ms(math.Min(h.Quantile(p), maxSecs)) }
	st := LatencyStats{
		Count:   h.Count(),
		P50Ms:   q(0.50),
		P90Ms:   q(0.90),
		P95Ms:   q(0.95),
		P99Ms:   q(0.99),
		MaxMs:   ms(maxSecs),
		Dropped: h.Dropped(),
	}
	if st.Count > 0 {
		st.MeanMs = ms(h.Sum() / float64(st.Count))
	}
	return st
}

// RequestStats counts request outcomes. Classes partition Sent:
// OK (2xx) + ClientErr (4xx except 429) + Shed (final-status 429) +
// ServerErr (5xx) + TransportErr (no HTTP status) == Sent.
type RequestStats struct {
	Sent         int `json:"sent"`
	OK           int `json:"ok"`
	ClientErr    int `json:"client_err"`
	Shed         int `json:"shed_429"`
	ServerErr    int `json:"server_err"`
	TransportErr int `json:"transport_err"`
	// Retries429 counts re-sends after a 429 (0 unless Retry429 > 0).
	Retries429 int `json:"retries_429"`
	// ByStatus is the exact final-status histogram, keyed by code.
	ByStatus map[int]int `json:"by_status"`
}

// ServerSide is the two-sided view: the server's /metrics scraped before
// and after the run, with counter deltas for the serving-layer series.
type ServerSide struct {
	// Deltas holds after-minus-before for every wpred_serve_*,
	// wpred_router_*, and wpred_http_* counter/histogram-count series
	// (bucket series omitted).
	Deltas map[string]float64 `json:"deltas,omitempty"`
	// Gauges holds the after-run value of the matching gauge series.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// Report is the machine-readable result of one load run (SLO.check.json
// / the -o output of cmd/wpredload).
type Report struct {
	Profile Profile `json:"profile"`
	// Target is the base URL traffic was offered to.
	Target string `json:"target"`
	// ScheduleDigest fingerprints the request sequence: equal seeds and
	// profiles produce equal digests on every machine.
	ScheduleDigest string `json:"schedule_digest"`
	// WallSeconds is the measured run duration.
	WallSeconds float64 `json:"wall_seconds"`
	// ThroughputRPS is completed (any final status) requests per wall
	// second.
	ThroughputRPS float64 `json:"throughput_rps"`

	Requests RequestStats `json:"requests"`
	// Latency is the all-requests view; PerKind splits single vs batch.
	Latency LatencyStats            `json:"latency"`
	PerKind map[string]LatencyStats `json:"per_kind,omitempty"`

	Server *ServerSide `json:"server,omitempty"`
}

// SLO is one profile's service-level objectives: the committed
// SLO.baseline.json maps profile names to these limits and cmd/slodiff
// fails the gate when a report violates them. Zero-valued limits are not
// checked, so a baseline states only what it means to enforce.
type SLO struct {
	MaxP50Ms           float64 `json:"max_p50_ms,omitempty"`
	MaxP95Ms           float64 `json:"max_p95_ms,omitempty"`
	MaxP99Ms           float64 `json:"max_p99_ms,omitempty"`
	MaxErrorRate       float64 `json:"max_error_rate,omitempty"`        // (5xx + transport) / sent
	MaxShedRate        float64 `json:"max_shed_rate,omitempty"`         // final 429s / sent
	MaxClientErrorRate float64 `json:"max_client_error_rate,omitempty"` // non-429 4xx / sent
	MinThroughputRPS   float64 `json:"min_throughput_rps,omitempty"`
	// RequireAllOK, when set, fails on any non-2xx outcome at all — the
	// strictest form, for profiles that offer only valid, admissible load.
	RequireAllOK bool `json:"require_all_ok,omitempty"`
}

// Violation is one failed SLO check.
type Violation struct {
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

// Evaluate checks a report against the limits and returns every
// violation (empty means the SLO holds).
func (s SLO) Evaluate(rep *Report) []Violation {
	var v []Violation
	add := func(check, format string, args ...any) {
		v = append(v, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}
	sent := float64(rep.Requests.Sent)
	if sent == 0 {
		add("sent", "report contains no requests")
		return v
	}
	type limit struct {
		name     string
		got, max float64
		unit     string
	}
	for _, l := range []limit{
		{"p50", rep.Latency.P50Ms, s.MaxP50Ms, "ms"},
		{"p95", rep.Latency.P95Ms, s.MaxP95Ms, "ms"},
		{"p99", rep.Latency.P99Ms, s.MaxP99Ms, "ms"},
		{"error_rate", float64(rep.Requests.ServerErr+rep.Requests.TransportErr) / sent, s.MaxErrorRate, ""},
		{"shed_rate", float64(rep.Requests.Shed) / sent, s.MaxShedRate, ""},
		{"client_error_rate", float64(rep.Requests.ClientErr) / sent, s.MaxClientErrorRate, ""},
	} {
		if l.max > 0 && l.got > l.max {
			add(l.name, "%.4g%s exceeds the limit %.4g%s", l.got, l.unit, l.max, l.unit)
		}
	}
	if s.MinThroughputRPS > 0 && rep.ThroughputRPS < s.MinThroughputRPS {
		add("throughput", "%.4g rps below the floor %.4g rps", rep.ThroughputRPS, s.MinThroughputRPS)
	}
	if s.RequireAllOK && rep.Requests.OK != rep.Requests.Sent {
		add("all_ok", "%d of %d requests did not return 2xx", rep.Requests.Sent-rep.Requests.OK, rep.Requests.Sent)
	}
	return v
}

// Baseline is the SLO.baseline.json document: profile name → limits.
type Baseline struct {
	Profiles map[string]SLO `json:"profiles"`
}

// ProfileNames lists the baseline's profiles sorted, for error messages.
func (b *Baseline) ProfileNames() []string {
	names := make([]string, 0, len(b.Profiles))
	for n := range b.Profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
