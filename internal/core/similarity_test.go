package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/distance"
	"wpred/internal/fingerprint"
	"wpred/internal/obs"
	"wpred/internal/simeval"
	"wpred/internal/telemetry"
)

// matrixOracle is the similarity stage as the paper states it (§6.2.3):
// one builder fitted on the references and the targets together, the
// full distance matrix over both (simeval.ComputeMatrix), and
// Matrix.NearestWorkload per target, averaged over the targets. similarTo
// must rank exactly as it does, to the bit.
func matrixOracle(p *Pipeline, target []*telemetry.Experiment, sku telemetry.SKU) ([]WorkloadDistance, error) {
	var refs []*telemetry.Experiment
	for _, e := range p.refs.kept {
		if e.SKU == sku {
			refs = append(refs, e)
		}
	}
	if len(refs) == 0 {
		refs = p.refs.kept
	}
	all := append(append([]*telemetry.Experiment(nil), refs...), target...)
	features := p.selected
	for _, e := range all {
		if e.Resources.Len() == 0 {
			var plan []telemetry.Feature
			for _, f := range features {
				if f.Kind() == telemetry.Plan {
					plan = append(plan, f)
				}
			}
			if len(plan) == 0 {
				return nil, errors.New("oracle: plan-only experiment but no plan features selected")
			}
			features = plan
			break
		}
	}
	b := &fingerprint.Builder{Rep: p.cfg.Representation, Features: features}
	if err := b.Fit(all); err != nil {
		return nil, err
	}
	items := make([]simeval.Item, len(all))
	for i, e := range all {
		fp, err := b.Build(e)
		if err != nil {
			return nil, err
		}
		items[i] = simeval.Item{Workload: e.Workload, Run: e.Run, FP: fp}
		if i >= len(refs) {
			// One label for every target, so NearestWorkload skips them.
			items[i].Workload = "\x00target"
		}
	}
	m, err := simeval.ComputeMatrix(items, p.cfg.Metric)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for q := len(refs); q < len(items); q++ {
		_, d := m.NearestWorkload(q)
		for w, v := range d {
			sums[w] += v
			counts[w]++
		}
	}
	for w := range sums {
		sums[w] /= float64(counts[w])
	}
	return rankWorkloads(sums)
}

// sameRanking compares two rankings: workloads in the same order, every
// distance bit for bit.
func sameRanking(a, b []WorkloadDistance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Workload != b[i].Workload || math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// selectedOf picks the first nRes resource and nPlan plan features of the
// catalog: a selection fixed by hand, so pipelines of every
// representation and metric can be restored onto one suite without
// running feature selection.
func selectedOf(nRes, nPlan int) []telemetry.Feature {
	var out []telemetry.Feature
	for _, f := range telemetry.AllFeatures() {
		switch {
		case f.Kind() == telemetry.Resource && nRes > 0:
			out = append(out, f)
			nRes--
		case f.Kind() == telemetry.Plan && nPlan > 0:
			out = append(out, f)
			nPlan--
		}
	}
	return out
}

// targetSet is one named list of targets.
type targetSet struct {
	name   string
	target []*telemetry.Experiment
}

// similarityTargets are the target sets the similarity tests score: one
// and three YCSB runs and a plan-only PW run on the small SKU, and one
// YCSB run on a SKU no reference was profiled on. The first two share a
// context, so the second reuses what the first built.
func similarityTargets(tb testing.TB, small telemetry.SKU) []targetSet {
	tb.Helper()
	src := telemetry.NewSource(31)
	ycsb, _ := bench.ByName(bench.YCSBName)
	pw, _ := bench.ByName(bench.PWName)
	var three []*telemetry.Experiment
	for r := 0; r < 3; r++ {
		three = append(three, simulateQuick(ycsb, small, 8, r, src))
	}
	planOnly := simulateQuick(pw, small, 8, 0, src)
	if planOnly.Resources.Len() != 0 {
		tb.Fatal("the PW target carries resource telemetry")
	}
	return []targetSet{
		{"1 target", three[:1]},
		{"3 targets", three},
		{"plan-only", []*telemetry.Experiment{planOnly}},
		{"unprofiled", []*telemetry.Experiment{simulateQuick(ycsb, telemetry.SKU{CPUs: 4, MemoryGB: 32}, 8, 0, src)}},
	}
}

// TestSimilarToMatchesMatrixOracle holds similarTo's ranks and the bits of
// every distance to matrixOracle under every representation, every norm
// and time-series metric, and every target set, for a selection of
// resource and plan features and one of resource features only. A case
// that errors must error on both sides.
func TestSimilarToMatchesMatrixOracle(t *testing.T) {
	raw, small, _ := referenceSuite(t)
	refs := SanitizeReferences(raw, telemetry.SanitizePolicy{})
	targets := similarityTargets(t, small)
	metrics := append(distance.Norms(), distance.TimeSeriesMetrics()...)
	if len(metrics) != 10 {
		t.Fatalf("%d metrics, want the 6 norms and 4 time-series metrics", len(metrics))
	}
	reps := []fingerprint.Representation{fingerprint.HistFP, fingerprint.MTS, fingerprint.PhaseFP, fingerprint.TemplateFP}
	selections := map[string][]telemetry.Feature{
		"mixed":    selectedOf(4, 3),
		"resource": selectedOf(5, 0),
	}
	var matched, failed int
	for selName, sel := range selections {
		for _, rep := range reps {
			for _, m := range metrics {
				p, err := Restore(Config{Representation: rep, Metric: m, Seed: 12, Subsamples: 5}, refs, PipelineState{Selected: sel})
				if err != nil {
					t.Fatal(err)
				}
				for _, ts := range targets {
					c := fmt.Sprintf("%s/%v/%s/%s", selName, rep, m.Name(), ts.name)
					sku := ts.target[0].SKU
					want, wantErr := matrixOracle(p, ts.target, sku)
					got, gotErr := p.similarTo(ts.target, sku)
					switch {
					case (wantErr == nil) != (gotErr == nil):
						t.Errorf("%s: oracle error %v, similarTo error %v", c, wantErr, gotErr)
					case wantErr != nil:
						failed++
					case !sameRanking(got, want):
						t.Errorf("%s: similarTo %v, oracle %v", c, got, want)
					default:
						matched++
					}
				}
			}
		}
	}
	t.Logf("%d cases matched the oracle bit for bit, %d failed on both sides", matched, failed)
	if matched == 0 {
		t.Fatal("no case succeeded")
	}
}

// TestIndexedMatchesExhaustive: with every reference indexed (threshold
// 1) and IndexK covering the references, the indexed path ranks exactly
// like the exhaustive one, to the bit, on targets whose values lie in the
// references' ranges, under every metric-space distance (the ones the
// index answers exactly). A small IndexK still ranks the workloads of the
// target's nearest references, and a non-positive one is an error.
func TestIndexedMatchesExhaustive(t *testing.T) {
	raw, small, large := referenceSuite(t)
	refs := SanitizeReferences(raw, telemetry.SanitizePolicy{})
	// References are in range by construction: one run of each of two
	// workloads on the small SKU.
	var target []*telemetry.Experiment
	for _, e := range refs.kept {
		if e.SKU == small && e.Run == 1 && e.Workload != bench.TPCHName {
			target = append(target, e)
		}
	}
	if len(target) != 2 {
		t.Fatalf("%d in-range targets, want 2", len(target))
	}
	sel := PipelineState{Selected: selectedOf(4, 3)}
	for _, m := range []distance.Metric{distance.L11{}, distance.L21{}, distance.Frobenius{}, distance.Canberra{}} {
		base := Config{Metric: m, Seed: 12, Subsamples: 5}
		exhaustive, err := Restore(withIndex(base, -1, 0), refs, sel)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := Restore(withIndex(base, 1, len(refs.kept)), refs, sel)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := exhaustive.PredictWithReport(target, large)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := indexed.PredictWithReport(target, large)
		if err != nil {
			t.Fatal(err)
		}
		if !samePrediction(got, want) {
			t.Errorf("%s: indexed %+v, exhaustive %+v", m.Name(), got, want)
		}
		if c := indexed.contexts[contextKey{sku: small}]; c == nil || c.index == nil {
			t.Errorf("%s: the indexed prediction built no index", m.Name())
		}

		narrow, err := Restore(withIndex(base, 1, 2), refs, sel)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := narrow.similarTo(target[:1], small)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) == 0 || len(ranked) > 2 {
			t.Errorf("%s: IndexK 2 ranked %d workloads, want 1 or 2", m.Name(), len(ranked))
		}
		bad, err := Restore(withIndex(base, 1, -1), refs, sel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.similarTo(target[:1], small); err == nil {
			t.Errorf("%s: IndexK -1 accepted", m.Name())
		}
	}
}

func withIndex(c Config, threshold, k int) Config {
	c.IndexThreshold, c.IndexK = threshold, k
	return c
}

// TestContextsBoundedBySuite: targets on SKUs no reference was profiled
// on share one context, so what a pipeline holds does not grow with the
// SKUs requests name.
func TestContextsBoundedBySuite(t *testing.T) {
	p, _, small, _ := trainedPipeline(t)
	src := telemetry.NewSource(32)
	ycsb, _ := bench.ByName(bench.YCSBName)
	score := func(sku telemetry.SKU) {
		t.Helper()
		target := []*telemetry.Experiment{simulateQuick(ycsb, sku, 8, 0, src)}
		if _, err := p.similarTo(target, sku); err != nil {
			t.Fatal(err)
		}
	}
	score(small)
	for cpus := 3; cpus < 8; cpus++ {
		score(telemetry.SKU{CPUs: cpus, MemoryGB: 8 * cpus})
	}
	p.ctxMu.Lock()
	n := len(p.contexts)
	p.ctxMu.Unlock()
	if n != 2 {
		t.Fatalf("%d contexts after one profiled and five unprofiled SKUs, want 2", n)
	}
}

// TestWarmPredictRunsNoPoolTasks: once its context and scaling stage
// exist, a prediction runs entirely in the calling goroutine.
func TestWarmPredictRunsNoPoolTasks(t *testing.T) {
	p, _, small, large := trainedPipeline(t)
	ycsb, _ := bench.ByName(bench.YCSBName)
	target := []*telemetry.Experiment{simulateQuick(ycsb, small, 8, 0, telemetry.NewSource(33))}
	if _, _, err := p.PredictWithReport(target, large); err != nil {
		t.Fatal(err)
	}
	tasks := obs.GetCounter("wpred_parallel_tasks_started_total", "", nil)
	before := tasks.Value()
	if _, _, err := p.PredictWithReport(target, large); err != nil {
		t.Fatal(err)
	}
	if n := tasks.Value() - before; n != 0 {
		t.Fatalf("a warm prediction started %d pool tasks, want 0", n)
	}
}

// TestConcurrentFirstPredicts: 32 goroutines make the first predictions
// of a fresh pipeline at once, across two SKUs and a plan-only target, so
// they race to build its contexts (run it under -race). Every answer
// equals the one a second fresh pipeline gives serially.
func TestConcurrentFirstPredicts(t *testing.T) {
	raw, small, large := referenceSuite(t)
	refs := SanitizeReferences(raw, telemetry.SanitizePolicy{})
	cfg := Config{Seed: 12, Subsamples: 5}
	st := PipelineState{Selected: selectedOf(4, 3)}
	fresh := func() *Pipeline {
		p, err := Restore(cfg, refs, st)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	src := telemetry.NewSource(34)
	ycsb, _ := bench.ByName(bench.YCSBName)
	pw, _ := bench.ByName(bench.PWName)
	inputs := []memoInput{
		{[]*telemetry.Experiment{simulateQuick(ycsb, small, 8, 0, src)}, large},
		{[]*telemetry.Experiment{simulateQuick(ycsb, large, 8, 0, src)}, small},
		{[]*telemetry.Experiment{simulateQuick(pw, small, 8, 0, src)}, large},
	}
	serial := fresh()
	want := make([]*Prediction, len(inputs))
	for i, in := range inputs {
		var err error
		if want[i], _, err = serial.PredictWithReport(in.target, in.to); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
	}

	p := fresh()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := inputs[g%len(inputs)]
			got, _, err := p.PredictWithReport(in.target, in.to)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if !samePrediction(got, want[g%len(inputs)]) {
				t.Errorf("goroutine %d: %+v, want %+v", g, got, want[g%len(inputs)])
			}
		}(g)
	}
	wg.Wait()
}

// TestZeroThroughputTargetIsUnusable: a prediction scales the targets'
// mean observed throughput, so a mean that is not positive is the
// client's fault, not a NaN answer.
func TestZeroThroughputTargetIsUnusable(t *testing.T) {
	p, _, small, large := trainedPipeline(t)
	ycsb, _ := bench.ByName(bench.YCSBName)
	target := simulateQuick(ycsb, small, 8, 0, telemetry.NewSource(35))
	target.Throughput = 0
	pred, _, err := p.PredictWithReport([]*telemetry.Experiment{target}, large)
	if !errors.Is(err, ErrNoUsableTargets) || pred != nil {
		t.Fatalf("zero-throughput target = %+v, %v; want ErrNoUsableTargets", pred, err)
	}
}
