package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"wpred/internal/core"
	"wpred/internal/drift"
	"wpred/internal/loadgen"
	"wpred/internal/obs"
	"wpred/internal/parallel"
	"wpred/internal/serve"
	"wpred/internal/snapshot"
	"wpred/internal/telemetry"
)

// span is one timed call. Spans of one request share its request ID (the
// schedule position; -1 for set-up); id is unique within the request and
// parent is the enclosing span's id (-1 for the root).
type span struct {
	Request int    `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   map[int]int // next span id, by request
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ids: map[int]int{}} }

func (t *tracer) nextID(request int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.ids[request]
	t.ids[request]++
	return id
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) push(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// open is a started span.
type open struct {
	tr *tracer
	s  span
}

// begin starts a span for request under parent (-1 for a root).
func (t *tracer) begin(request, parent int, name string) *open {
	return &open{tr: t, s: span{Request: request, ID: t.nextID(request), Parent: parent, Name: name, StartNS: t.since(time.Now())}}
}

// child starts a span under o.
func (o *open) child(name string) *open { return o.tr.begin(o.s.Request, o.s.ID, name) }

// end records the span.
func (o *open) end() {
	o.s.EndNS = o.tr.since(time.Now())
	o.tr.push(o.s)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, in ms, keyed by request and span id.
func selfTimes(spans []span) map[[2]int]float64 {
	kids := map[[2]int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			k := [2]int{s.Request, s.Parent}
			kids[k] = append(kids[k], s)
		}
	}
	out := make(map[[2]int]float64, len(spans))
	for _, s := range spans {
		cs := kids[[2]int{s.Request, s.ID}]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNS < cs[b].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, c := range cs {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[[2]int{s.Request, s.ID}] = float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.recorded()})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// pass is the untraced fixed-length pass against wpredd: counters,
// MemStats and host readings around exactly the positions the traced
// replay sends.
type pass struct {
	*phase
	snapshotFileMB float64
	bodyKB         float64 // mean prediction request body
	bodies         map[int][]byte
}

// traced is the per-layer run: an untraced fixed-length pass against
// wpredd for its counters, then the same positions replayed against an
// in-process server of the same configuration with spans around the
// handler and around the benchmark's own calls into each layer.
func traced(ctx context.Context, env *runEnv) (*result, error) {
	tr := newTracer()
	setup := tr.begin(-1, -1, "setup")
	p, err := prepare(env)
	if err != nil {
		return nil, err
	}
	n := env.wl.traceRequests * env.seconds / 10
	n = max(env.wl.align, n-n%env.wl.align)

	// wpredd and the replay each get a pristine copy of the primed
	// snapshots, so both start from the same registry and disk state.
	snaps := filepath.Join(env.dir, "snapshots")
	replaySnaps := filepath.Join(env.dir, "replay-snapshots")
	if env.wl.name == "key-churn" {
		if err := copyDir(snaps, replaySnaps); err != nil {
			return nil, err
		}
	}

	// In-process server with wpredd's configuration.
	refs := p.in.refs
	if env.wl.library {
		sp := setup.child("telemetry.read_suite")
		f, err := os.Open(filepath.Join(env.dir, "library.json"))
		if err != nil {
			return nil, err
		}
		refs, err = telemetry.ReadExperiments(f)
		f.Close()
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	cfg := serve.Config{Refs: refs, Seed: env.seed}
	warmKeys := []serve.Key{defaultKey}
	switch env.wl.name {
	case "heavy-model":
		warmKeys = []serve.Key{heavyKey}
	case "key-churn":
		cfg.RegistryCap, cfg.SnapshotDir = churnCap, replaySnaps
		warmKeys = []serve.Key{churnKeys[0]}
	}
	srv := serve.New(cfg)
	sp := setup.child("serve.restore_snapshots")
	_, _, err = srv.RestoreSnapshots()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = setup.child("serve.warmup")
	err = srv.Warmup(warmKeys...)
	sp.end()
	if err != nil {
		return nil, err
	}
	trainSpans(setup, p.o)
	setup.end()

	ps, err := untracedPass(ctx, env, p, n)
	if err != nil {
		return nil, err
	}

	rp := &replay{
		tr: tr, o: p.o, srv: srv,
		store:   snapshot.NewStore(replaySnaps),
		scratch: snapshot.NewStore(filepath.Join(env.dir, "scratch-snapshots")),
		tracker: drift.NewTracker(driftConfig(env.seed)),
	}
	if rp.refsHash, err = snapshot.SuiteHash(refs); err != nil {
		return nil, err
	}
	rp.cl = &client{ctx: ctx, in: p.in, send: inProcessSender(srv.Handler()), metrics: scrapeInProcess}
	rs, err := rp.run(n)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(env.root, ".bench_build", "traces", fmt.Sprintf("%s-%d.json", env.wl.name, env.seed))); err != nil {
		return nil, err
	}

	// The replay must answer exactly what wpredd answered.
	for pos, body := range ps.bodies {
		if got, ok := rs.bodies[pos]; !ok || !bytes.Equal(got, body) {
			ps.side.problem("position %d: in-process replay answered differently from wpredd", pos)
		}
	}
	passOK := report("wpredd", &ps.acct, &ps.side)
	replayOK := report("replay", &rs.acct, &accounting{})
	res := &result{
		Correct:   passOK && replayOK,
		Attempted: ps.acct.attempted(),
		Failed:    ps.acct.failed(),
		Metrics:   layerMetrics(ps, rs, tr),
	}
	printMetrics(res.Metrics)
	return res, nil
}

// trainSpans records the in-process trainings the oracle timed as
// core.train spans under the set-up root.
func trainSpans(setup *open, o *oracle) {
	tr := setup.tr
	for _, iv := range o.trainings {
		tr.push(span{
			Request: -1, ID: tr.nextID(-1), Parent: setup.s.ID, Name: "core.train",
			StartNS: tr.since(iv.start), EndNS: tr.since(iv.end),
		})
	}
}

// untracedPass launches wpredd once and sends n positions after the
// warm-up with the workload's connections, reading counters around them.
func untracedPass(ctx context.Context, env *runEnv, p *prepared, n int) (*pass, error) {
	d, _, err := startDaemon(ctx, env.wpredd, p.flags)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ph, err := runPhase(ctx, env, p, d, n, time.Hour, true)
	if err != nil {
		return nil, err
	}
	ps := &pass{phase: ph, bodies: map[int][]byte{}}
	var bodyBytes float64
	for _, st := range ph.steps {
		ps.bodies[st.pos] = st.predict.body
		bodyBytes += float64(len(st.req.body))
	}
	ps.bodyKB = bodyBytes / float64(len(ph.steps)) / 1024
	if env.wl.name == "key-churn" {
		ps.snapshotFileMB = meanFileMB(filepath.Join(env.dir, "snapshots"), ".snap")
	}
	fmt.Printf("untraced pass: %d positions, %.0f items ok in %.3f s (%.4g items/s); responses digest=%s\n",
		len(ph.steps), ph.items, ph.elapsed.Seconds(), ph.items/ph.elapsed.Seconds(), ph.digest)
	return ps, nil
}

// replay drives the in-process server and the layer calls under spans.
type replay struct {
	tr       *tracer
	o        *oracle
	srv      *serve.Server
	cl       *client
	store    *snapshot.Store // the in-process server's snapshot directory
	scratch  *snapshot.Store // where replayed saves go
	tracker  *drift.Tracker
	refsHash string
}

// replayed is the traced replay's outcome.
type replayed struct {
	acct    accounting
	items   float64
	elapsed time.Duration
	stats   serve.RegistryStats
	events  int
	bodies  map[int][]byte
}

func (rp *replay) run(n int) (*replayed, error) {
	in := rp.cl.in
	v := newVerifier(rp.o)
	var warm accounting
	pre, first := rp.cl.warmUp()
	for _, st := range pre {
		if r := st.req; r.obs != nil {
			// Keep the benchmark's own tracker in step with the server's.
			rp.tracker.Observe(r.key.String(), drift.Observation{Tick: r.obs.tick, Observed: r.obs.observed, Predicted: r.obs.predicted})
		}
	}
	v.check(pre, &warm)
	if err := rp.cl.calibrate(); err != nil {
		return nil, err
	}
	if len(warm.problems) > 0 {
		return nil, fmt.Errorf("in-process warm-up: %s", warm.problems[0])
	}

	out := &replayed{bodies: map[int][]byte{}}
	st0 := rp.srv.RegistryStats()
	start := time.Now()
	var steps []step
	for pos := first; pos < first+n; pos++ {
		if err := rp.cl.ctx.Err(); err != nil {
			return nil, err
		}
		r, ok := in.at(pos)
		if !ok {
			break
		}
		st, err := rp.step(pos, r)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
		out.bodies[pos] = st.predict.body
		if st.observe != nil && bytes.Contains(st.observe.body, []byte(`"status":"drift"`)) {
			out.events++
		}
	}
	out.elapsed = time.Since(start)
	st1 := rp.srv.RegistryStats()
	out.stats = serve.RegistryStats{
		Fits: st1.Fits - st0.Fits, Hits: st1.Hits - st0.Hits, Misses: st1.Misses - st0.Misses,
		Evictions: st1.Evictions - st0.Evictions, Restores: st1.Restores - st0.Restores, Refits: st1.Refits - st0.Refits,
	}
	v.check(steps, &out.acct)
	out.items = float64(out.acct.okItems())
	return out, nil
}

// step sends one position to the in-process handler under a root span and
// then times the benchmark's own calls into each layer on the same inputs.
func (rp *replay) step(pos int, r *request) (step, error) {
	root := rp.tr.begin(pos, -1, "request")
	defer root.end()
	st := step{pos: pos, req: r}

	before := rp.srv.RegistryStats()
	h := root.child("serve.handle")
	st.predict = rp.cl.send(r.path, r.body)
	h.end()
	after := rp.srv.RegistryStats()

	for _, it := range r.items {
		sp := root.child("telemetry.decode")
		_, err := telemetry.ReadExperiment(bytes.NewReader(rp.o.in.docs[it.target]))
		sp.end()
		if err != nil {
			return st, err
		}
	}
	p := rp.o.pipelines[r.key]
	predict := func(parent *open, it item) error {
		sp := parent.child("core.predict")
		_, _, err := p.PredictWithReport([]*telemetry.Experiment{rp.o.decoded[it.target]}, skuOf(it.toCPUs))
		sp.end()
		return err
	}
	if len(r.items) == 1 {
		if err := predict(root, r.items[0]); err != nil {
			return st, err
		}
	} else {
		// Fan out like the batch handler does.
		batch := root.child("core.batch")
		_, err := parallel.Map(len(r.items), func(i int) (struct{}, error) {
			return struct{}{}, predict(batch, r.items[i])
		})
		batch.end()
		if err != nil {
			return st, err
		}
	}
	if after.Restores > before.Restores {
		sp := root.child("snapshot.load")
		_, err := rp.store.Load(r.key.Selection, r.key.Metric, r.key.Model)
		sp.end()
		if err != nil {
			return st, err
		}
	}
	if after.Fits > before.Fits {
		if err := rp.fit(root, r.key); err != nil {
			return st, err
		}
	}
	if r.obs == nil {
		return st, nil
	}

	oh := root.child("serve.observe")
	ob := rp.cl.send("/v1/observe", r.obs.body)
	oh.end()
	st.observe = &ob
	sp := root.child("drift.observe")
	rp.tracker.Observe(r.key.String(), drift.Observation{Tick: r.obs.tick, Observed: r.obs.observed, Predicted: r.obs.predicted})
	sp.end()
	if ob.code == http.StatusOK && bytes.Contains(ob.body, []byte(`"refit":true`)) {
		rp.cl.refits.Add(1)
		w := root.child("registry.refit_wait")
		st.waitErr = rp.cl.awaitRefits()
		w.end()
		refit := root.child("registry.refit")
		err := rp.fit(refit, r.key)
		refit.end()
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// fit times what a registry fit does for key under parent: train the
// pipeline and save its snapshot (into a scratch store, leaving the
// server's alone).
func (rp *replay) fit(parent *open, k serve.Key) error {
	cfg, err := pipelineConfig(k, rp.o.in.seed)
	if err != nil {
		return err
	}
	sp := parent.child("core.train")
	p, err := core.TrainPipeline(cfg, rp.srv.Refs())
	sp.end()
	if err != nil {
		return err
	}
	state, err := p.State()
	if err != nil {
		return err
	}
	sp = parent.child("snapshot.save")
	err = rp.scratch.Save(&snapshot.Snapshot{
		Selection: k.Selection, Metric: k.Metric, Model: k.Model, Seed: rp.o.in.seed,
		RefsHash: rp.refsHash, CreatedUnix: time.Now().Unix(), State: state,
	})
	sp.end()
	return err
}

// inProcessSender answers requests with the in-process handler.
func inProcessSender(h http.Handler) func(string, []byte) exchange {
	return func(path string, body []byte) exchange {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return exchange{code: rec.Code, body: rec.Body.Bytes(), latency: time.Since(t0)}
	}
}

// scrapeInProcess reads this process's own metrics registry.
func scrapeInProcess() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return loadgen.ParsePrometheus(&buf)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// meanFileMB is the mean size of the files with suffix ext in dir.
func meanFileMB(dir, ext string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var sum float64
	var n int
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		if info, err := e.Info(); err == nil {
			sum += float64(info.Size())
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / (1 << 20)
}
