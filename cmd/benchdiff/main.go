// Command benchdiff turns `go test -bench` text output into a stable JSON
// snapshot and compares two such snapshots.
//
// Usage:
//
//	go test -bench . -benchmem -count 6 ./... > BENCH.txt
//	benchdiff -parse BENCH.txt -o BENCH.json    # snapshot (median over -count)
//	benchdiff BENCH.json.old BENCH.json         # compare two snapshots
//
// Parsing aggregates repeated runs of the same benchmark (from -count N)
// with the median, which is robust to scheduler noise. Comparison prints
// one row per benchmark present in either file with the ns/op delta; pass
// -threshold P to exit non-zero when any shared benchmark regresses its
// ns/op, allocs/op, OR B/op by more than P percent. Allocation regressions
// on a zero-alloc baseline have no percentage, so any new allocation there
// fails the gate outright — protecting the kernel layer's zero-alloc wins
// behind `make bench-check`. Byte regressions on near-zero baselines
// (< 64 B/op) instead get an absolute 64-byte floor, since a single pooled
// buffer showing up as a few dozen bytes is measurement noise, not a leak.
// With -threshold, a baseline benchmark missing from the new snapshot also
// fails: a gate that matches nothing (say, names recorded with a different
// -cpu suffix) must not pass by comparing nothing.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is the aggregated measurement of one benchmark.
type Result struct {
	// Samples is how many runs were aggregated (the -count value).
	Samples int `json:"samples"`
	// NsPerOp, BPerOp and AllocsPerOp are medians over the samples.
	// BPerOp/AllocsPerOp are -1 when -benchmem was not in effect.
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Snapshot is the BENCH.json document: benchmark name → aggregated result.
type Snapshot struct {
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	var (
		parse     = flag.String("parse", "", "parse `go test -bench` text output from this file (- for stdin)")
		out       = flag.String("o", "BENCH.json", "with -parse: where to write the JSON snapshot")
		threshold = flag.Float64("threshold", 0, "with two snapshots: exit 1 if any ns/op, allocs/op, or B/op regression exceeds this percent (any alloc increase over a zero-alloc baseline fails; B/op under a 64-byte baseline only fails on a >64-byte increase), or if any benchmark of the old snapshot is missing from the new one; 0 = report only")
	)
	flag.Parse()

	var err error
	switch {
	case *parse != "":
		err = runParse(*parse, *out)
	case flag.NArg() == 2:
		err = runDiff(flag.Arg(0), flag.Arg(1), *threshold)
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff -parse BENCH.txt [-o BENCH.json] | benchdiff [-threshold P] old.json new.json")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func runParse(in, out string) error {
	f := os.Stdin
	if in != "-" {
		var err error
		f, err = os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
	}

	type samples struct{ ns, bytes, allocs []float64 }
	raw := map[string]*samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, ns, bytes, allocs, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		s := raw[name]
		if s == nil {
			s = &samples{}
			raw[name] = s
		}
		s.ns = append(s.ns, ns)
		if bytes >= 0 {
			s.bytes = append(s.bytes, bytes)
			s.allocs = append(s.allocs, allocs)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", in)
	}

	snap := Snapshot{Benchmarks: map[string]Result{}}
	for name, s := range raw {
		snap.Benchmarks[name] = Result{
			Samples:     len(s.ns),
			NsPerOp:     median(s.ns),
			BPerOp:      medianOr(s.bytes, -1),
			AllocsPerOp: medianOr(s.allocs, -1),
		}
	}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchdiff: wrote %d benchmarks to %s\n", len(snap.Benchmarks), out)
	return nil
}

// parseBenchLine extracts one `BenchmarkX-N  iters  T ns/op [B B/op  A allocs/op]`
// line. bytes and allocs are -1 when -benchmem columns are absent.
func parseBenchLine(line string) (name string, ns, bytes, allocs float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, 0, 0, false
	}
	name = fields[0]
	bytes, allocs = -1, -1
	found := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, 0, 0, false
		}
		switch fields[i+1] {
		case "ns/op":
			ns, found = v, true
		case "B/op":
			bytes = v
		case "allocs/op":
			allocs = v
		}
	}
	return name, ns, bytes, allocs, found
}

func runDiff(oldPath, newPath string, threshold float64) error {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		return err
	}

	names := map[string]bool{}
	for n := range oldSnap.Benchmarks {
		names[n] = true
	}
	for n := range newSnap.Benchmarks {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-60s %14s %14s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	regressed, missing := []string{}, []string{}
	for _, n := range sorted {
		o, inOld := oldSnap.Benchmarks[n]
		nw, inNew := newSnap.Benchmarks[n]
		switch {
		case !inOld:
			fmt.Fprintf(w, "%-60s %14s %14.1f %9s %9s\n", n, "-", nw.NsPerOp, "new", allocDelta(-1, nw.AllocsPerOp))
		case !inNew:
			fmt.Fprintf(w, "%-60s %14.1f %14s %9s %9s\n", n, o.NsPerOp, "-", "gone", "")
			if threshold > 0 {
				missing = append(missing, n)
			}
		default:
			delta := 100 * (nw.NsPerOp - o.NsPerOp) / o.NsPerOp
			fmt.Fprintf(w, "%-60s %14.1f %14.1f %+8.1f%% %9s\n", n, o.NsPerOp, nw.NsPerOp, delta, allocDelta(o.AllocsPerOp, nw.AllocsPerOp))
			if threshold > 0 && delta > threshold {
				regressed = append(regressed, fmt.Sprintf("%s (+%.1f%%)", n, delta))
			}
			if threshold > 0 {
				if bad, desc := allocRegressed(o.AllocsPerOp, nw.AllocsPerOp, threshold); bad {
					regressed = append(regressed, fmt.Sprintf("%s (allocs %s)", n, desc))
				}
				if bad, desc := bytesRegressed(o.BPerOp, nw.BPerOp, threshold); bad {
					regressed = append(regressed, fmt.Sprintf("%s (bytes %s)", n, desc))
				}
			}
		}
	}
	var problems []string
	if len(regressed) > 0 {
		problems = append(problems, fmt.Sprintf("%d benchmark(s) regressed past %.1f%%: %s",
			len(regressed), threshold, strings.Join(regressed, ", ")))
	}
	if len(missing) > 0 {
		problems = append(problems, fmt.Sprintf("%d baseline benchmark(s) missing from %s: %s",
			len(missing), newPath, strings.Join(missing, ", ")))
	}
	if len(problems) > 0 {
		w.Flush()
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

// allocRegressed decides whether an allocs/op change fails the gate. Both
// snapshots need -benchmem data (-1 means absent). A benchmark whose
// baseline is zero allocs/op fails on any increase — percentages are
// meaningless against zero, and the zero-alloc steady states are exactly
// the wins the gate exists to protect. Otherwise the same percentage
// threshold as ns/op applies.
func allocRegressed(old, cur, threshold float64) (bad bool, desc string) {
	if old < 0 || cur < 0 || cur <= old {
		return false, ""
	}
	if old == 0 {
		return true, fmt.Sprintf("0→%.0f", cur)
	}
	if pct := 100 * (cur - old) / old; pct > threshold {
		return true, fmt.Sprintf("+%.1f%%", pct)
	}
	return false, ""
}

// bytesRegressed decides whether a B/op change fails the gate. Bytes are
// noisier than allocation counts at the low end — one pooled buffer
// ratcheting or a size-class change shows up as a few dozen bytes — so
// baselines under 64 B/op get an absolute floor: the gate fails only when
// the increase itself exceeds 64 bytes. Larger baselines use the same
// percentage threshold as ns/op.
func bytesRegressed(old, cur, threshold float64) (bad bool, desc string) {
	if old < 0 || cur < 0 || cur <= old {
		return false, ""
	}
	if old < 64 {
		if cur-old > 64 {
			return true, fmt.Sprintf("%.0f→%.0f B", old, cur)
		}
		return false, ""
	}
	if pct := 100 * (cur - old) / old; pct > threshold {
		return true, fmt.Sprintf("+%.1f%%", pct)
	}
	return false, ""
}

func allocDelta(prev, cur float64) string {
	if cur < 0 {
		return ""
	}
	if prev < 0 {
		return fmt.Sprintf("%.0f", cur)
	}
	return fmt.Sprintf("%.0f→%.0f", prev, cur)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOr(xs []float64, fallback float64) float64 {
	if len(xs) == 0 {
		return fallback
	}
	return median(xs)
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &s, nil
}
