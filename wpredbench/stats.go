package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile: a tail read off fewer samples is one or two outliers.
const tailMinBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the tail rule: the highest percentile that still
// has at least tailMinBeyond samples beyond it. That is the sample with
// exactly tailMinBeyond larger samples, at percentile 100·(n−10)/n. With
// tailMinBeyond or fewer samples there is no such percentile and ok is
// false.
func tailPercentile(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - tailMinBeyond - 1
	return s[k], 100 * float64(n-tailMinBeyond) / float64(n), true
}

// cpuTicks parses /proc/<pid>/stat and returns utime+stime in clock ticks.
// The command name (field 2) sits in parentheses and may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func cpuTicks(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	var sum uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		sum += v
	}
	return sum, nil
}

// clockTicksPerSec is USER_HZ, the unit of /proc CPU times; it is 100 on
// every Linux architecture Go supports.
const clockTicksPerSec = 100

// hostCPU is the aggregate "cpu" line of /proc/stat.
type hostCPU struct {
	// total is user+nice+system+idle+iowait+irq+softirq+steal; guest time
	// is already inside user and nice.
	total, steal uint64
}

// parseHostCPU reads the aggregate cpu line of /proc/stat.
func parseHostCPU(r io.Reader) (hostCPU, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return hostCPU{}, fmt.Errorf("proc stat: cpu line has %d fields, want at least 9", len(f))
		}
		var h hostCPU
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("proc stat: %w", err)
			}
			h.total += v
			if i == 7 {
				h.steal = v
			}
		}
		return h, nil
	}
	if err := sc.Err(); err != nil {
		return hostCPU{}, err
	}
	return hostCPU{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two readings, in percent.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// parseMemStats reads the "# runtime.MemStats" block that
// /debug/pprof/heap?debug=1 appends to the heap profile: one
// "# Name = value" line per field. Integer fields are returned; array and
// float fields are skipped.
func parseMemStats(r io.Reader) (map[string]uint64, error) {
	out := map[string]uint64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	in := false
	for sc.Scan() {
		line := sc.Text()
		if line == "# runtime.MemStats" {
			in = true
			continue
		}
		if !in || !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !in {
		return nil, fmt.Errorf("memstats: no runtime.MemStats block")
	}
	if _, ok := out["HeapAlloc"]; !ok {
		return nil, fmt.Errorf("memstats: no HeapAlloc field")
	}
	return out, nil
}
