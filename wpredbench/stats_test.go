package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		value     float64
		pct       float64
		supported bool
	}{
		{n: 0},
		{n: 10}, // ten samples: none can have ten beyond it
		{11, 1, 100.0 / 11, true},
		{20, 10, 50, true},  // the 10th smallest has exactly 10 larger
		{100, 90, 90, true}, // p90
		{1000, 990, 99, true},
		{2570, 2560, 100 * 2560.0 / 2570, true},
	} {
		v, pct, ok := tailPercentile(seq(tc.n))
		if ok != tc.supported {
			t.Fatalf("n=%d: supported=%v, want %v", tc.n, ok, tc.supported)
		}
		if !ok {
			continue
		}
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail %v at p%v, want %v at p%v", tc.n, v, pct, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailMinBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestCPUTicks(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (wp (re) dd) S 1 4242 4242 0 -1 4194560 8371 0 0 0 1234 567 0 0 20 0 9 0 10185 1422188544 8110 18446744073709551615 1 1 0 0 0 0 0 0 1073745400 0 0 0 17 1 0 0 0 0 0"
	got, err := cpuTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234+567 {
		t.Errorf("cpu ticks %d, want %d", got, 1234+567)
	}
	for _, bad := range []string{"", "12 (x) S 1 2", "12 (x) S 1 2 3 4 5 6 7 8 9 x 10"} {
		if _, err := cpuTicks(bad); err == nil {
			t.Errorf("cpuTicks(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseHostCPU(t *testing.T) {
	a, err := parseHostCPU(strings.NewReader(
		"cpu  100 5 50 800 10 2 3 30 7 0\ncpu0 50 2 25 400 5 1 1 15 3 0\nintr 1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 30 {
		t.Fatalf("parsed total %d steal %d, want 1000 and 30 (guest excluded)", a.total, a.steal)
	}
	b := hostCPU{total: 1200, steal: 80}
	if got := stealPct(a, b); got != 25 {
		t.Errorf("steal %v%%, want 25%%", got)
	}
	if got := stealPct(b, b); got != 0 {
		t.Errorf("steal over no time %v, want 0", got)
	}
	for _, bad := range []string{"", "intr 1 2\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x 9 10\n"} {
		if _, err := parseHostCPU(strings.NewReader(bad)); err == nil {
			t.Errorf("parseHostCPU(%q) accepted a malformed file", bad)
		}
	}
}

func TestParseMemStats(t *testing.T) {
	const profile = `heap profile: 3: 1024 [9: 4096] @ heap/1048576
1: 512 [3: 1536] @ 0x1 0x2
#	0x1	main.f+0x10	/src/main.go:10

# runtime.MemStats
# Alloc = 6142024
# TotalAlloc = 987654321
# Sys = 20000000
# HeapAlloc = 6142024
# NumGC = 42
# NumForcedGC = 3
# GCCPUFraction = 0.0123
# PauseNs = [1 2 3]
# DebugGC = false
`
	m, err := parseMemStats(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]uint64{"HeapAlloc": 6142024, "TotalAlloc": 987654321, "NumGC": 42, "NumForcedGC": 3} {
		if m[k] != want {
			t.Errorf("%s = %d, want %d", k, m[k], want)
		}
	}
	if _, ok := m["GCCPUFraction"]; ok {
		t.Error("a float field was parsed as an integer")
	}
	if _, err := parseMemStats(strings.NewReader("heap profile: 0: 0 [0: 0]\n")); err == nil {
		t.Error("a profile without MemStats was accepted")
	}
	if _, err := parseMemStats(strings.NewReader("# runtime.MemStats\n# NumGC = 1\n")); err == nil {
		t.Error("MemStats without HeapAlloc was accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	// Root 0..100 with children 10..40 and 30..60 (overlapping) and a
	// grandchild 15..20 under the first child.
	spans := []span{
		{Request: 7, ID: 0, Parent: -1, StartNS: 0, EndNS: 100e6},
		{Request: 7, ID: 1, Parent: 0, StartNS: 10e6, EndNS: 40e6},
		{Request: 7, ID: 2, Parent: 0, StartNS: 30e6, EndNS: 60e6},
		{Request: 7, ID: 3, Parent: 1, StartNS: 15e6, EndNS: 20e6},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{0: 50, 1: 25, 2: 30, 3: 5} {
		if got := self[[2]int{7, id}]; math.Abs(got-want) > 1e-9 {
			t.Errorf("span %d self %v ms, want %v", id, got, want)
		}
	}
}
