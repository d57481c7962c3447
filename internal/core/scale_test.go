package core

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"wpred/internal/bench"
	"wpred/internal/featsel"
	"wpred/internal/parallel"
	"wpred/internal/scalemodel"
	"wpred/internal/telemetry"
)

// memoLen reports how many scaling stages the pipeline's memo holds.
func memoLen(p *Pipeline) int {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	return len(p.memo)
}

// memoInput is one Predict call: a target list and a to SKU.
type memoInput struct {
	target []*telemetry.Experiment
	to     telemetry.SKU
}

// memoInputs builds targets from two workloads on the small SKU, each
// predicted to both profiled SKUs.
func memoInputs(tb testing.TB, small, large telemetry.SKU) []memoInput {
	tb.Helper()
	src := telemetry.NewSource(13)
	var out []memoInput
	for _, name := range []string{bench.YCSBName, bench.TPCCName} {
		w, err := bench.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			tg := []*telemetry.Experiment{simulateQuick(w, small, 8, r, src)}
			out = append(out, memoInput{tg, large}, memoInput{tg, small})
		}
	}
	return out
}

// samePrediction compares every field a response carries, bit for bit.
func samePrediction(a, b *Prediction) bool {
	if a.NearestReference != b.NearestReference || a.FromSKU != b.FromSKU || a.ToSKU != b.ToSKU ||
		len(a.Distances) != len(b.Distances) {
		return false
	}
	for w, d := range a.Distances {
		if math.Float64bits(d) != math.Float64bits(b.Distances[w]) {
			return false
		}
	}
	for _, pair := range [][2]float64{
		{a.ObservedThroughput, b.ObservedThroughput},
		{a.PredictedThroughput, b.PredictedThroughput},
		{a.PredictedLo, b.PredictedLo},
		{a.PredictedHi, b.PredictedHi},
		{a.ScalingFactor, b.ScalingFactor},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			return false
		}
	}
	return true
}

// TestScaleMemoConcurrentFillsOnce runs 64 goroutines against one trained
// pipeline with a cold memo: each (nearest, from, to) stage is fitted
// exactly once, every other call is a hit, and every answer matches a
// fresh pipeline (empty memo, so a fit per call) bit for bit.
func TestScaleMemoConcurrentFillsOnce(t *testing.T) {
	p, refs, small, large := trainedPipeline(t)
	inputs := memoInputs(t, small, large)
	st, err := p.State()
	if err != nil {
		t.Fatal(err)
	}
	sanitized := SanitizeReferences(refs, p.cfg.Sanitize)
	want := make([]*Prediction, len(inputs))
	triples := map[scaleKey]bool{}
	for i, in := range inputs {
		fresh, err := Restore(p.cfg, sanitized, st)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], _, err = fresh.PredictWithReport(in.target, in.to); err != nil {
			t.Fatal(err)
		}
		triples[scaleKey{want[i].NearestReference, want[i].FromSKU, want[i].ToSKU}] = true
	}

	const goroutines, rounds = 64, 3
	fills0, hits0 := scaleMemoFills.Value(), scaleMemoHits.Value()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(inputs)
				got, _, err := p.PredictWithReport(inputs[i].target, inputs[i].to)
				if err != nil {
					errs <- err
					return
				}
				if !samePrediction(got, want[i]) {
					errs <- errors.New("memoized prediction differs from a fresh fit")
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	fills, hits := scaleMemoFills.Value()-fills0, scaleMemoHits.Value()-hits0
	if int(fills) != len(triples) {
		t.Errorf("memo fills = %v, want one per distinct triple (%d)", fills, len(triples))
	}
	if int(fills+hits) != goroutines*rounds {
		t.Errorf("fills + hits = %v, want one per call (%d)", fills+hits, goroutines*rounds)
	}
	if memoLen(p) != len(triples) {
		t.Errorf("memo holds %d stages, want %d", memoLen(p), len(triples))
	}
}

// TestScaleMemoBoundedBySuite pins the memo's bound: a request naming a
// SKU the reference suite does not hold is answered (or refused) as
// before, but never adds an entry.
func TestScaleMemoBoundedBySuite(t *testing.T) {
	refs, small, large := referenceSuite(t)
	for _, ctx := range []scalemodel.Context{scalemodel.Pairwise, scalemodel.Single} {
		p := New(Config{Seed: 12, Subsamples: 5, Context: ctx, Strategy: scalemodel.Regression,
			Selection: featsel.VarianceThreshold{}})
		if err := p.Train(refs); err != nil {
			t.Fatal(err)
		}
		inputs := memoInputs(t, small, large)
		if _, _, err := p.PredictWithReport(inputs[0].target, large); err != nil {
			t.Fatal(err)
		}
		n := memoLen(p)
		if n != 1 {
			t.Fatalf("%v: memo holds %d stages after one prediction, want 1", ctx, n)
		}
		foreign := []telemetry.SKU{
			{CPUs: 16, MemoryGB: 128},             // unprofiled CPU count
			{CPUs: large.CPUs, MemoryGB: 512},     // profiled CPUs, other memory
			{CPUs: small.CPUs, MemoryGB: 1 << 20}, // same, on the from side's CPUs
		}
		for _, to := range foreign {
			a, _, errA := p.PredictWithReport(inputs[0].target, to)
			b, _, errB := p.PredictWithReport(inputs[0].target, to)
			if (errA == nil) != (errB == nil) || (errA == nil && !samePrediction(a, b)) {
				t.Errorf("%v to %v: repeated answers differ (%v, %v)", ctx, to, errA, errB)
			}
		}
		odd := inputs[0].target[0].Clone()
		odd.SKU.MemoryGB = 3
		_, _, _ = p.PredictWithReport([]*telemetry.Experiment{odd}, large)
		if got := memoLen(p); got != n {
			t.Errorf("%v: memo grew from %d to %d on SKUs outside the suite", ctx, n, got)
		}
	}
}

// TestScaleMemoPanickingFillReleasesWaiters injects a panic into a memo
// fill while other callers wait on it: every caller gets the panic as a
// *parallel.PanicError, the entry is dropped, the next call fits again and
// answers like a fresh pipeline, and no goroutine is left behind.
func TestScaleMemoPanickingFillReleasesWaiters(t *testing.T) {
	p, refs, small, large := trainedPipeline(t)
	in := memoInputs(t, small, large)[0]
	st, _ := p.State()
	fresh, _ := Restore(p.cfg, SanitizeReferences(refs, p.cfg.Sanitize), st)
	want, _, err := fresh.PredictWithReport(in.target, in.to)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const waiters = 8
	entered, release := make(chan struct{}), make(chan struct{})
	testHookScaleFill = func() {
		close(entered)
		<-release
		panic("injected fill failure")
	}
	defer func() { testHookScaleFill = nil }()

	hits0, panics0 := scaleMemoHits.Value(), scaleFillPanics.Recovered()
	errs := make(chan error, waiters+1)
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		_, _, err := p.PredictWithReport(in.target, in.to)
		errs <- err
	}
	wg.Add(1)
	go call()
	<-entered
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go call()
	}
	for deadline := time.Now().Add(30 * time.Second); scaleMemoHits.Value()-hits0 < waiters; {
		if time.Now().After(deadline) {
			t.Fatal("waiters never joined the in-flight fill")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller got %v, want a *parallel.PanicError", err)
		}
	}
	if n := memoLen(p); n != 0 {
		t.Fatalf("memo holds %d entries after a panicking fill, want 0", n)
	}
	if got := scaleFillPanics.Recovered() - panics0; got != 1 {
		t.Errorf("scale_memo_fill counted %d recovered panics, want 1", got)
	}

	testHookScaleFill = nil
	fills0 := scaleMemoFills.Value()
	got, _, err := p.PredictWithReport(in.target, in.to)
	if err != nil {
		t.Fatal(err)
	}
	if scaleMemoFills.Value()-fills0 != 1 {
		t.Error("the call after a panicking fill did not fit again")
	}
	if !samePrediction(got, want) {
		t.Error("prediction after a panicking fill differs from a fresh pipeline")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want back to %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNearestDeterministicOnExactTies duplicates a reference workload
// under a second name, so both sit at exactly the same distance from the
// target. The nearest reference must be the same on every call: the name
// breaks the tie, never map order.
func TestNearestDeterministicOnExactTies(t *testing.T) {
	refs, small, large := referenceSuite(t)
	dup := append([]*telemetry.Experiment(nil), refs...)
	for _, e := range refs {
		if e.Workload == bench.TPCCName {
			c := e.Clone()
			c.Workload = "TPC-C copy"
			dup = append(dup, c)
		}
	}
	p := New(Config{Seed: 12, Subsamples: 5, Selection: featsel.VarianceThreshold{}, Strategy: scalemodel.Regression})
	if err := p.Train(dup); err != nil {
		t.Fatal(err)
	}
	w, _ := bench.ByName(bench.TPCCName)
	target := []*telemetry.Experiment{simulateQuick(w, small, 8, 0, telemetry.NewSource(77))}
	var first *Prediction
	for i := 0; i < 100; i++ {
		pred, _, err := p.PredictWithReport(target, large)
		if err != nil {
			t.Fatal(err)
		}
		if d := pred.Distances; d[bench.TPCCName] != d["TPC-C copy"] {
			t.Fatalf("duplicated references are not tied: %v vs %v", d[bench.TPCCName], d["TPC-C copy"])
		}
		if first == nil {
			first = pred
			if pred.NearestReference != bench.TPCCName {
				t.Fatalf("nearest = %q, want %q (the tie's smaller name)", pred.NearestReference, bench.TPCCName)
			}
		} else if !samePrediction(pred, first) {
			t.Fatalf("call %d: nearest %q differs from the first call's %q", i, pred.NearestReference, first.NearestReference)
		}
	}
}

// BenchmarkPredictPipeline is the steady-state predict path of a served
// MLP-scaled key: a pipeline trained on a small suite answers a fixed
// cycle of inputs whose scaling stages are already memoized, so each
// iteration costs sanitize, similarity and applying a stored stage.
func BenchmarkPredictPipeline(b *testing.B) {
	refs, small, large := referenceSuite(b)
	p := New(Config{Seed: 12, Subsamples: 5, Selection: featsel.VarianceThreshold{}, Strategy: scalemodel.NNet})
	if err := p.Train(refs); err != nil {
		b.Fatal(err)
	}
	inputs := memoInputs(b, small, large)
	for _, in := range inputs {
		if _, _, err := p.PredictWithReport(in.target, in.to); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inputs[i%len(inputs)]
		if _, _, err := p.PredictWithReport(in.target, in.to); err != nil {
			b.Fatal(err)
		}
	}
}
