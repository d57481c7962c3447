// Command wpredbench is the repository's end-to-end benchmark. It starts
// the checkout's wpredd as a child process, configured only through its
// flags, drives it from a closed loop of at most two connections, checks
// every answer against in-process predictions, and prints the end-to-end
// metrics of one workload (-trace 0) or the per-layer metrics of a traced
// replay (-trace 1). The last line of standard output is one JSON object.
//
// Run it through run.sh, which builds wpredd and this program first:
//
//	bash wpredbench/run.sh --workload bulk-batch --seed 42 --seconds 10 --trace 0
//
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"wpred/internal/serve"
	"wpred/internal/telemetry"
)

// setupProbes is how many times a run launches wpredd to time set-up; the
// last launch serves the measured phase.
const setupProbes = 3

// metric is one named result with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv is one invocation's settings and working directory.
type runEnv struct {
	wl      *workload
	seed    uint64
	seconds int
	root    string
	dir     string // scratch directory for this run, removed at exit
	wpredd  string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("wpredbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: bulk-batch, heavy-model or key-churn")
		seed    = fs.Uint64("seed", 42, "seed every input is generated from")
		seconds = fs.Int("seconds", 10, "length of the measured phase in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root    = fs.String("root", ".", "checkout root; wpredd is expected in .bench_build/bin")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "wpredbench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	env := &runEnv{wl: wl, seed: *seed, seconds: *seconds, root: *root}
	env.wpredd = filepath.Join(*root, ".bench_build", "bin", "wpredd")
	runs := filepath.Join(*root, ".bench_build", "run")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wpredbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(runs, wl.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wpredbench:", err)
		return 1
	}
	env.dir = dir
	defer os.RemoveAll(dir)

	var res *result
	if *trace == 1 {
		res, err = traced(ctx, env)
	} else {
		res, err = measured(ctx, env)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wpredbench:", err)
		return 1
	}
	// A run whose checks failed can leave a rate with nothing to divide;
	// JSON has no NaN or infinity, so such a value is reported as 0.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			res.Metrics[name] = m
			res.Correct = false
		}
	}
	fmt.Println(marshalLine(res))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "wpredbench: output check failed")
		return 1
	}
	return 0
}

// prepared is a run's generated inputs, their in-process answers, and the
// files wpredd needs.
type prepared struct {
	in    *inputs
	o     *oracle
	flags []string
}

// prepare generates the inputs, computes the in-process answers (the
// output check's reference) and writes the files wpredd reads at boot.
// None of it is timed.
func prepare(env *runEnv) (*prepared, error) {
	in, err := generate(env.wl, env.seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("wpredbench: workload=%s seed=%d seconds=%d connections=%d schedule=%s\n",
		env.wl.name, env.seed, env.seconds, env.wl.conns, in.digest())
	t0 := time.Now()
	o, err := newOracle(in)
	if err != nil {
		return nil, err
	}
	fmt.Printf("check: %d distinct inputs predicted in process in %.1f s\n", len(o.want), time.Since(t0).Seconds())
	p := &prepared{in: in, o: o, flags: append([]string{"-seed", fmt.Sprint(env.seed)}, env.wl.flags(in, env.dir)...)}
	if env.wl.library {
		lib := filepath.Join(env.dir, "library.json")
		if err := writeLibrary(in.refs, lib); err != nil {
			return nil, err
		}
		p.flags = append(p.flags, "-telemetry", lib)
	}
	if env.wl.name == "key-churn" {
		err = primeSnapshots(in, filepath.Join(env.dir, "snapshots"))
	}
	return p, err
}

// writeLibrary writes the reference library wpredd loads with -telemetry.
func writeLibrary(refs []*telemetry.Experiment, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteExperiments(f, refs); err != nil {
		f.Close()
		return fmt.Errorf("write library: %w", err)
	}
	return f.Close()
}

// primeSnapshots fits every churn key once into the snapshot directory, so
// wpredd's boot is a warm restart and every registry miss is a restore.
// It trains in process under wpredd's configuration; the files are the
// ones wpredd itself writes.
func primeSnapshots(in *inputs, dir string) error {
	srv := serve.New(serve.Config{Refs: in.refs, Seed: in.seed, RegistryCap: churnCap, SnapshotDir: dir})
	if err := srv.Warmup(churnKeys...); err != nil {
		return fmt.Errorf("prime snapshots: %w", err)
	}
	return nil
}

// digestPositions is how many leading positions the response digest
// covers: one pass over a cyclic schedule, or key-churn's first 64 pairs.
func digestPositions(in *inputs) int {
	if in.wl.cyclic {
		return len(in.reqs)
	}
	return 64
}

// phase is one closed-loop pass against a running wpredd, with the
// readings taken around it and its verified outcome.
type phase struct {
	acct    accounting // the measured positions
	side    accounting // warm-up and digest completion
	steps   []step
	elapsed time.Duration
	items   float64 // prediction items answered correctly
	digest  string
	// Readings before (0) and after (1) the measured positions. /metrics
	// and the first MemStats are read only when counters are requested.
	env0, env1 envReading
	m0, m1     map[string]float64
	mem0, mem1 map[string]uint64
}

// runPhase warms wpredd up, then runs the closed loop for length, or for
// n positions when n > 0, and verifies every answer. It reads MemStats
// after the loop, and with counters also /metrics and MemStats before.
func runPhase(ctx context.Context, env *runEnv, p *prepared, d *daemon, n int, length time.Duration, counters bool) (*phase, error) {
	cl := &client{ctx: ctx, in: p.in, send: httpSender(ctx, d.api, p.in.wl.conns), metrics: d.scrape}
	v := newVerifier(p.o)
	ph := &phase{}
	warm, first := cl.warmUp()
	v.check(warm, &ph.side)
	err := cl.calibrate()
	if err == nil && counters {
		if ph.mem0, err = d.memStats(); err == nil {
			ph.m0, err = d.scrape()
		}
	}
	if err == nil {
		ph.env0, err = readEnv(d)
	}
	if err != nil {
		return nil, err
	}
	limit := math.MaxInt
	if n > 0 {
		limit = first + n
	}
	ph.steps, ph.elapsed = cl.closedLoop(p.in.wl.conns, first, limit, time.Now().Add(length))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ph.env1, err = readEnv(d)
	if err == nil && counters {
		ph.m1, err = d.scrape()
	}
	if err == nil {
		ph.mem1, err = d.memStats()
	}
	if err != nil {
		return nil, err
	}
	if len(ph.steps) == 0 {
		return nil, errors.New("the measured phase completed no request")
	}
	v.check(ph.steps, &ph.acct)
	ph.items = float64(ph.acct.okItems())

	// Answer the digest positions the phase did not reach, then hash.
	all := append(warm, ph.steps...)
	if last, want := ph.steps[len(ph.steps)-1].pos, digestPositions(p.in); last+1 < want {
		rest, _ := cl.closedLoop(p.in.wl.conns, last+1, want, time.Now().Add(time.Hour))
		v.check(rest, &ph.side)
		all = append(all, rest...)
	}
	ph.digest = recordDigest(env, p.in, all, &ph.side)
	return ph, nil
}

// recordDigest hashes the responses to the first digest positions and
// compares the hash with the one an earlier run of the same schedule
// recorded in the checkout. Steps must be in position order.
func recordDigest(env *runEnv, in *inputs, steps []step, acct *accounting) string {
	got, err := responseDigest(steps, digestPositions(in))
	if err != nil {
		acct.problem("response digest: %v", err)
		return ""
	}
	dir := filepath.Join(env.root, ".bench_build", "digests")
	path := filepath.Join(dir, env.wl.name+"-"+in.digest())
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != got {
			acct.problem("response digest %s differs from %s recorded by an earlier run of this schedule", got, prev)
		}
		return got
	}
	if err := os.MkdirAll(dir, 0o755); err == nil {
		_ = os.WriteFile(path, []byte(got), 0o644)
	}
	return got
}

func sha256Hex(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\n", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// launchProbes starts wpredd setupProbes times and returns the last,
// still running, launch plus the median launch-to-ready time in seconds.
func launchProbes(ctx context.Context, env *runEnv, p *prepared) (*daemon, float64, error) {
	var setups []float64
	var d *daemon
	for i := 0; i < setupProbes; i++ {
		d.stop()
		var took time.Duration
		var err error
		if d, took, err = startDaemon(ctx, env.wpredd, p.flags); err != nil {
			return nil, 0, err
		}
		setups = append(setups, took.Seconds())
	}
	fmt.Printf("setup: launch to /readyz 200 in %.3f s\n", setups)
	return d, median(setups), nil
}

// report prints a run's failure accounting, labelled with the pass it
// covers, and its check problems, and returns whether the run passed every
// check.
func report(label string, acct *accounting, side *accounting) bool {
	for _, k := range []struct {
		name string
		t    tally
	}{{"predict", acct.predict}, {"batch_item", acct.batchItem}, {"observe", acct.observe}} {
		if k.t.Attempted > 0 {
			fmt.Printf("accounting %s %s: %s\n", label, k.name, marshalLine(k.t))
		}
	}
	ok := true
	for _, a := range []*accounting{acct, side} {
		for _, p := range a.problems {
			fmt.Println("check failed:", p)
			ok = false
		}
	}
	return ok && acct.attempted() > 0 && acct.failed() == 0
}

// measured is the untraced run: set-up probes, a warm-up, then the closed
// loop for env.seconds against the last probe's wpredd.
func measured(ctx context.Context, env *runEnv) (*result, error) {
	p, err := prepare(env)
	if err != nil {
		return nil, err
	}
	d, setup, err := launchProbes(ctx, env, p)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ph, err := runPhase(ctx, env, p, d, 0, time.Duration(env.seconds)*time.Second, false)
	if err != nil {
		return nil, err
	}
	d.stop()

	acct := &ph.acct
	p50 := median(acct.latencies)
	tail, pct, ok := tailPercentile(acct.latencies)
	if !ok {
		tail, pct = maxOf(acct.latencies), 100
	}
	res := &result{
		Correct:   report("phase", acct, &ph.side),
		Attempted: acct.attempted(),
		Failed:    acct.failed(),
		Metrics: map[string]metric{
			"setup_s":         {setup, "s"},
			"items_per_s":     {ph.items / ph.elapsed.Seconds(), "1/s"},
			"latency_p50_ms":  {p50, "ms"},
			"latency_tail_ms": {tail, "ms"},
			"cpu_ms_per_item": {(ph.env1.serverMS - ph.env0.serverMS) / ph.items, "ms"},
			"heap_mb":         {float64(ph.mem1["HeapAlloc"]) / (1 << 20), "MB"},
			"success_ratio":   {float64(acct.attempted()-acct.failed()) / float64(acct.attempted()), "1"},
		},
	}
	fmt.Printf("phase: %d requests, %.0f items ok in %.3f s; error_ratio=%.6g\n",
		len(acct.latencies), ph.items, ph.elapsed.Seconds(), float64(acct.failed())/float64(acct.attempted()))
	fmt.Printf("latency: p50 %.3f ms; tail p%.2f %.3f ms over %d samples\n", p50, pct, tail, len(acct.latencies))
	fmt.Printf("env: steal_pct=%.3f driver_cpu_ms=%.1f server_cpu_ms=%.0f\n",
		stealPct(ph.env0.host, ph.env1.host), ph.env1.driverMS-ph.env0.driverMS, ph.env1.serverMS-ph.env0.serverMS)
	fmt.Printf("responses: digest=%s\n", ph.digest)
	printMetrics(res.Metrics)
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// printMetrics prints one "name = value unit" line per metric, by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s = %.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
