package main

import (
	"fmt"
	"sort"
)

// layerTotals sums the traced replay's spans by layer. Handler-side sums
// cover prediction requests; the layer spans are the benchmark's own calls
// on each request's inputs, made after the handler returned, so the
// handler's time minus their sum is the serving layer's own work (the
// RawMessage re-scans, admission and rendering), printed as the residual.
type layerTotals struct {
	requests int
	handle   float64 // serve.handle
	decode   float64 // telemetry.decode
	core     float64 // core.predict, or the core.batch fan-out
	snapshot float64 // snapshot.load and snapshot.save inside a request
	train    float64 // core.train inside a request (registry fits)
	// Work outside the prediction handler.
	observe, driftObs, refitWait, refit float64
}

func (t *layerTotals) residual() float64 {
	return t.handle - t.decode - t.core - t.snapshot - t.train
}

// spanStat is a count and sum of span durations and self times, in ms.
type spanStat struct {
	n          int
	total, own float64
}

func (s spanStat) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total / float64(s.n)
}

// summarize folds the spans into per-name statistics and layer totals.
func summarize(spans []span) (map[string]spanStat, layerTotals) {
	self := selfTimes(spans)
	byName := map[string]spanStat{}
	roots := map[int]int{} // request → root span id
	for _, s := range spans {
		st := byName[s.Name]
		st.n++
		st.total += s.ms()
		st.own += self[[2]int{s.Request, s.ID}]
		byName[s.Name] = st
		if s.Parent < 0 {
			roots[s.Request] = s.ID
		}
	}
	var t layerTotals
	for _, s := range spans {
		if s.Request < 0 {
			continue
		}
		top := s.Parent == roots[s.Request]
		switch {
		case s.Name == "serve.handle":
			t.requests++
			t.handle += s.ms()
		case s.Name == "telemetry.decode":
			t.decode += s.ms()
		case s.Name == "core.batch" || (s.Name == "core.predict" && top):
			t.core += s.ms()
		case (s.Name == "snapshot.load" || s.Name == "snapshot.save") && top:
			t.snapshot += s.ms()
		case s.Name == "core.train" && top:
			t.train += s.ms()
		case s.Name == "serve.observe":
			t.observe += s.ms()
		case s.Name == "drift.observe":
			t.driftObs += s.ms()
		case s.Name == "registry.refit_wait":
			t.refitWait += s.ms()
		case s.Name == "registry.refit":
			t.refit += s.ms()
		}
	}
	return byName, t
}

// printLayers prints the traced layer table and the per-name span table.
func printLayers(byName map[string]spanStat, t layerTotals) {
	share := func(x float64) float64 {
		if t.handle == 0 {
			return 0
		}
		return 100 * x / t.handle
	}
	per := func(x float64) float64 { return x / float64(max(1, t.requests)) }
	fmt.Printf("layer table: %d prediction requests; ms per request and share of serve.handle\n", t.requests)
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"serve.handle", t.handle},
		{"telemetry.decode", t.decode},
		{"core.predict", t.core},
		{"snapshot.load+save", t.snapshot},
		{"registry.fit (core.train)", t.train},
		{"serve.self (residual)", t.residual()},
	} {
		fmt.Printf("  %-28s %10.3f ms %6.1f%%\n", row.name, per(row.v), share(row.v))
	}
	fmt.Println("outside the prediction handler, ms per request:")
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"serve.observe", t.observe},
		{"drift.observe", t.driftObs},
		{"registry.refit_wait", t.refitWait},
		{"registry.refit (train+save)", t.refit},
	} {
		fmt.Printf("  %-28s %10.3f ms\n", row.name, per(row.v))
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("spans by name: count, total ms, self ms")
	for _, n := range names {
		s := byName[n]
		fmt.Printf("  %-22s %6d %12.3f %12.3f\n", n, s.n, s.total, s.own)
	}
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(ps *pass, rs *replayed, tr *tracer) map[string]metric {
	byName, t := summarize(tr.recorded())
	printLayers(byName, t)

	delta := func(k string) float64 { return ps.m1[k] - ps.m0[k] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	stageMS := func(stage string) float64 {
		return 1000 * ratio(delta(stageSeries("predict", stage, "sum")), delta(stageSeries("predict", stage, "count")))
	}
	memDelta := func(k string) float64 { return float64(ps.mem1[k]) - float64(ps.mem0[k]) }

	seen := map[string]bool{}
	repeats := 0
	for _, pr := range ps.acct.preds {
		k := fmt.Sprintf("%s|%d|%d", pr.NearestReference, pr.FromSKU.CPUs, pr.ToSKU.CPUs)
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}

	tracedRate := ratio(rs.items, rs.elapsed.Seconds())
	untracedRate := ratio(ps.items, ps.elapsed.Seconds())
	hits, misses := delta(mHits), delta(mMisses)
	fmt.Printf("traced replay: %.0f items in %.3f s (%.4g items/s) against %.4g items/s untraced\n",
		rs.items, rs.elapsed.Seconds(), tracedRate, untracedRate)
	fmt.Printf("counts (wpredd pass): hits=%.0f misses=%.0f fits=%.0f restores=%.0f evictions=%.0f refits=%.0f drift_events=%.0f\n",
		hits, misses, delta(mFits), delta(mRestores), delta(mEvictions), delta(mRefits), delta(mDriftEvents))
	fmt.Printf("counts (in-process replay): hits=%d misses=%d fits=%d restores=%d evictions=%d refits=%d drift_events=%d\n",
		rs.stats.Hits, rs.stats.Misses, rs.stats.Fits, rs.stats.Restores, rs.stats.Evictions, rs.stats.Refits, rs.events)

	return map[string]metric{
		"serve.handle_ms": {ratio(t.handle, float64(t.requests)), "ms"},
		"serve.self_ms":   {ratio(t.residual(), float64(t.requests)), "ms"},
		"serve.body_kb":   {ps.bodyKB, "KB"},
		"serve.rejected":  {delta(mRejected), "count"},

		"telemetry.decode_ms":       {byName["telemetry.decode"].mean(), "ms"},
		"telemetry.read_suite_s":    {byName["telemetry.read_suite"].mean() / 1000, "s"},
		"core.predict_ms":           {byName["core.predict"].mean(), "ms"},
		"core.sanitize_ms":          {stageMS("sanitize"), "ms"},
		"core.similarity_ms":        {stageMS("similarity"), "ms"},
		"core.scalemodel_ms":        {stageMS("scalemodel"), "ms"},
		"core.repeat_share":         {ratio(float64(repeats), float64(len(ps.acct.preds))), "1"},
		"core.train_s":              {byName["core.train"].mean() / 1000, "s"},
		"featsel.select_s":          {ratio(ps.m1[stageSeries("train", "featsel", "sum")], ps.m1[stageSeries("train", "featsel", "count")]), "s"},
		"registry.hits":             {hits, "count"},
		"registry.misses":           {misses, "count"},
		"registry.fits":             {delta(mFits), "count"},
		"registry.restores":         {delta(mRestores), "count"},
		"registry.evictions":        {delta(mEvictions), "count"},
		"registry.refits":           {delta(mRefits), "count"},
		"registry.hit_ratio":        {ratio(hits, hits+misses), "1"},
		"registry.fit_ms":           {1000 * ratio(ps.m1[mFitSum], ps.m1[mFitCount]), "ms"},
		"snapshot.load_ms":          {byName["snapshot.load"].mean(), "ms"},
		"snapshot.save_ms":          {byName["snapshot.save"].mean(), "ms"},
		"snapshot.file_mb":          {ps.snapshotFileMB, "MB"},
		"snapshot.writes":           {delta(mSnapWrites), "count"},
		"drift.observe_us":          {1000 * byName["drift.observe"].mean(), "us"},
		"drift.observations":        {delta(mDriftObs), "count"},
		"drift.events":              {delta(mDriftEvents), "count"},
		"drift.refits":              {delta(mDriftRefits), "count"},
		"parallel.tasks_per_item":   {ratio(delta(mTasks), ps.items), "tasks/item"},
		"parallel.queue_wait_ms":    {1000 * ratio(delta(mWaitSum), delta(mWaitCount)), "ms"},
		"runtime.alloc_kb_per_item": {ratio(memDelta("TotalAlloc"), ps.items) / 1024, "KB"},
		"runtime.gc_per_1k_items":   {1000 * ratio(memDelta("NumGC")-memDelta("NumForcedGC"), ps.items), "count"},
		"obs.trace_overhead_pct":    {100 * (ratio(untracedRate, tracedRate) - 1), "%"},
		"env.steal_pct":             {stealPct(ps.env0.host, ps.env1.host), "%"},
		"env.driver_cpu_ms":         {ps.env1.driverMS - ps.env0.driverMS, "ms"},
	}
}
