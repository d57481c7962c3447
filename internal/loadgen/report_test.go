package loadgen

import (
	"testing"

	"wpred/internal/obs"
)

// TestLatencyStatsNeverExceedMax pins the quantile clamp: samples in the
// upper part of a wide bucket make interpolation place p90–p99 past the
// largest sample, and the report must show the observed max instead.
func TestLatencyStatsNeverExceedMax(t *testing.T) {
	h := obs.NewRegistry().Histogram("lat_seconds", "test", obs.DefBuckets, nil)
	maxSecs := 0.0
	for i := 0; i < 100; i++ {
		v := 2.6 + 0.01*float64(i%10) // all inside DefBuckets' (2.5, 5] bucket
		h.Observe(v)
		if v > maxSecs {
			maxSecs = v
		}
	}
	if raw := h.Quantile(0.99); raw <= maxSecs {
		t.Fatalf("setup: raw p99 %v does not exceed the max %v, so nothing is clamped", raw, maxSecs)
	}
	st := latencyStats(h, maxSecs)
	for name, q := range map[string]float64{"p50": st.P50Ms, "p90": st.P90Ms, "p95": st.P95Ms, "p99": st.P99Ms} {
		if q > st.MaxMs {
			t.Errorf("%s = %v ms exceeds max %v ms", name, q, st.MaxMs)
		}
	}
	if st.P99Ms != st.MaxMs {
		t.Errorf("p99 = %v ms, want it clamped to the max %v ms", st.P99Ms, st.MaxMs)
	}
	if empty := latencyStats(obs.NewRegistry().Histogram("e", "test", obs.DefBuckets, nil), 0); empty.P99Ms != 0 || empty.MaxMs != 0 {
		t.Errorf("empty histogram stats = %+v, want zeros", empty)
	}
}
