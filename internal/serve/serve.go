// Package serve is the long-running prediction service behind cmd/wpredd:
// it holds a reference telemetry suite in memory, trains prediction
// pipelines ahead of requests into an LRU-bounded, single-flight model
// registry, and serves single and micro-batched predictions over a
// stdlib-only HTTP JSON API with bounded-queue admission control.
//
// The package holds the repository's determinism bar: responses for
// identical request bodies are byte-identical regardless of worker count,
// cache temperature, or how many requests raced on a cold registry key.
// See "Serving layer" in DESIGN.md for the architecture.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"wpred/internal/core"
	"wpred/internal/drift"
	"wpred/internal/obs"
	"wpred/internal/parallel"
	"wpred/internal/scalemodel"
	"wpred/internal/telemetry"
)

// Config parameterizes a Server. The zero value of every field selects a
// production-safe default.
type Config struct {
	// Refs is the reference telemetry suite loaded once at startup; every
	// registry pipeline trains on it.
	Refs []*telemetry.Experiment
	// Seed drives every randomized component, making responses
	// reproducible across server restarts.
	Seed uint64
	// RegistryCap bounds the model registry (default 8 entries).
	RegistryCap int
	// QueueSlots bounds the admission queue (default 64 work items).
	QueueSlots int
	// MaxBodyBytes caps request bodies (default 8 MiB); larger bodies are
	// rejected with 413.
	MaxBodyBytes int64
	// TopK, Subsamples, and Sanitize pass through to core.Config (zero
	// values select the pipeline defaults).
	TopK       int
	Subsamples int
	Sanitize   telemetry.SanitizePolicy
	// IndexThreshold, IndexK, and IndexTau pass through to core.Config:
	// cold fits against a reference suite at or beyond IndexThreshold
	// same-SKU experiments route nearest-reference lookups through the
	// VP-tree index instead of the exhaustive pairwise matrix (see
	// "Sublinear similarity" in DESIGN.md). Zero values select the
	// pipeline defaults (threshold 256, k 32, τ 0).
	IndexThreshold int
	IndexK         int
	IndexTau       float64
	// SnapshotDir, when non-empty, makes trained models durable: every
	// fit is snapshotted there atomically, cold misses consult it before
	// training (so a fleet sharing one directory never trains a key
	// twice), RestoreSnapshots warm-starts from it, and shutdown persists
	// every resident model. Empty disables durability (the prior
	// in-memory-only behavior).
	SnapshotDir string
	// Drift parameterizes the streaming drift detector behind /v1/observe
	// (see "Drift & forecasting" in DESIGN.md). Zero values select the
	// drift package defaults; a zero Drift.Seed inherits Seed.
	Drift drift.Config
}

func (c Config) withDefaults() Config {
	if c.RegistryCap == 0 {
		c.RegistryCap = 8
	}
	if c.QueueSlots == 0 {
		c.QueueSlots = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the prediction service: handlers, model registry, and
// admission control. Create with New, optionally pre-train with Warmup,
// then expose via Handler or ListenAndServe.
type Server struct {
	cfg      Config
	registry *Registry
	adm      *admission
	snaps    *snapshots
	tracker  *drift.Tracker
	mux      http.Handler
	ready    atomic.Bool

	// refs is the current reference suite every fit and refit trains
	// against; SetRefs swaps it atomically when the workload regime moves.
	refs atomic.Pointer[[]*telemetry.Experiment]

	driftEvents atomic.Uint64
	driftRefits atomic.Uint64

	hs       *http.Server
	listener net.Listener

	// testHookAdmitted, when set, runs after a request's admission-queue
	// slots are acquired and before prediction starts. Tests use it to
	// hold requests in flight deterministically.
	testHookAdmitted func()
	// testHookPredict, when set, runs at the start of every prediction
	// item. Tests use it to inject a panicking item.
	testHookPredict func(*PredictRequest)
	// testHookTrain, when set, runs at the start of every pipeline fit
	// (warmup, cold miss, or refit). Tests use it to hold refits in
	// flight and to count trains.
	testHookTrain func(Key)
	// testHookRefitDone, when set, runs after a drift-triggered refit
	// flight resolves, with the flight's error. Tests use it to wait for
	// background refits without sleeping.
	testHookRefitDone func(Key, error)
}

// New returns a server holding the reference suite in cfg. It does not
// train anything; call Warmup (or let the first request fit lazily).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	s.refs.Store(&cfg.Refs)
	s.registry = NewRegistry(cfg.RegistryCap, s.trainKey)
	s.adm = newAdmission(cfg.QueueSlots, cfg.Seed)
	s.snaps = newSnapshots(cfg)
	if s.snaps != nil {
		s.registry.SetRestore(s.tryRestore)
	}
	dcfg := cfg.Drift
	if dcfg.Seed == 0 {
		dcfg.Seed = cfg.Seed
	}
	s.tracker = drift.NewTracker(dcfg)

	mux := http.NewServeMux()
	mux.Handle("POST /v1/predict", obs.InstrumentHandler("predict", http.HandlerFunc(s.handlePredict)))
	mux.Handle("POST /v1/predict/batch", obs.InstrumentHandler("predict_batch", http.HandlerFunc(s.handleBatch)))
	mux.Handle("POST /v1/observe", obs.InstrumentHandler("observe", http.HandlerFunc(s.handleObserve)))
	mux.Handle("GET /healthz", obs.InstrumentHandler("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /readyz", obs.InstrumentHandler("readyz", http.HandlerFunc(s.handleReadyz)))
	s.mux = mux
	return s
}

// Refs returns the reference suite fits currently train against.
func (s *Server) Refs() []*telemetry.Experiment { return *s.refs.Load() }

// SetRefs atomically swaps the reference telemetry suite — the operator's
// lever when the workload regime has genuinely moved. Models already
// resident keep serving (and stay byte-stable) until a drift event
// invalidates their key; fits, refits, and snapshot-compatibility checks
// from this point on see the new suite, so stale snapshots trained on the
// old suite are refit instead of restored, and a drain does not write the
// resident models of the old suite.
func (s *Server) SetRefs(refs []*telemetry.Experiment) {
	s.refs.Store(&refs)
	if s.snaps != nil {
		s.snaps.setRefs(refs)
	}
}

// pipelineConfig resolves a registry key's components into the pipeline
// configuration this server trains (and restores) the key under.
func (s *Server) pipelineConfig(k Key) (core.Config, error) {
	sel, ok := selectionByName(k.Selection, s.cfg.Seed)
	if !ok {
		return core.Config{}, fmt.Errorf("serve: unknown selection %q", k.Selection)
	}
	met, ok := metricByName(k.Metric)
	if !ok {
		return core.Config{}, fmt.Errorf("serve: unknown metric %q", k.Metric)
	}
	mod, ok := scalemodel.StrategyByName(k.Model)
	if !ok {
		return core.Config{}, fmt.Errorf("serve: unknown model %q", k.Model)
	}
	return core.Config{
		Selection:      sel,
		Metric:         met,
		Strategy:       mod,
		TopK:           s.cfg.TopK,
		Subsamples:     s.cfg.Subsamples,
		Sanitize:       s.cfg.Sanitize,
		IndexThreshold: s.cfg.IndexThreshold,
		IndexK:         s.cfg.IndexK,
		IndexTau:       s.cfg.IndexTau,
		Seed:           s.cfg.Seed,
	}, nil
}

// trainKey fits one registry entry: it resolves the key's components
// (already validated by the request decoder or Warmup) and trains a
// pipeline on the server's reference suite. With durability enabled, the
// freshly fitted model is snapshotted before it starts serving; a failed
// write degrades durability (counted, surfaced on /healthz) but never the
// fit itself.
func (s *Server) trainKey(k Key) (*core.Pipeline, error) {
	if s.testHookTrain != nil {
		s.testHookTrain(k)
	}
	cfg, err := s.pipelineConfig(k)
	if err != nil {
		return nil, err
	}
	// With durability on, the fit trains on the suite snapshots record, so
	// its snapshot carries the hash of what it learned from even when
	// SetRefs swaps the suite mid-fit.
	refs, rs := s.Refs(), s.snaps.usable()
	if rs != nil {
		refs = rs.refs
	}
	p, err := core.TrainPipeline(cfg, refs)
	if err != nil {
		return nil, err
	}
	if rs != nil {
		s.snaps.learned(p, rs)
		_ = s.saveSnapshot(k, p, rs)
	}
	return p, nil
}

// Warmup trains the given registry keys (defaults applied; the paper's
// recommended configuration when none are given) and then marks the
// server ready, flipping /readyz from 503 to 200. Call it after the
// listener is up so health probes can watch the transition.
func (s *Server) Warmup(keys ...Key) error {
	if len(keys) == 0 {
		keys = []Key{{}}
	}
	for _, k := range keys {
		if _, err := s.registry.Get(k.withDefaults()); err != nil {
			return fmt.Errorf("serve: warmup %s: %w", k.withDefaults(), err)
		}
	}
	s.ready.Store(true)
	return nil
}

// Ready reports whether warmup has completed.
func (s *Server) Ready() bool { return s.ready.Load() }

// RegistryStats exposes the model-registry counters (tests and the
// daemon's shutdown log line).
func (s *Server) RegistryStats() RegistryStats { return s.registry.Stats() }

// Handler returns the service's HTTP handler (the /v1 API plus probes) so
// tests can mount it on httptest servers.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds addr and serves in a background goroutine,
// returning the bound address once the listener is live (":0" resolves to
// the chosen port). Shut down with Shutdown.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.listener = ln
	s.hs = &http.Server{Handler: s.mux}
	go func() { _ = s.hs.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: it first flips /readyz to 503 so
// load balancers stop routing new work, then closes listeners and waits —
// up to ctx's deadline — for every in-flight request to complete.
// Requests still running when the deadline expires are abandoned
// (context.DeadlineExceeded is returned, matching net/http semantics).
// With durability enabled, every resident model is snapshotted after the
// drain — models are immutable once fitted, so this is safe even when the
// drain times out — and a restarted daemon warm-starts from them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	var drainErr error
	if s.hs != nil {
		drainErr = s.hs.Shutdown(ctx)
	}
	if err := s.persistResident(); err != nil && drainErr == nil {
		drainErr = err
	}
	if err := s.persistDriftState(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// httpError answers a request with a deterministic JSON error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// statusFor maps a prediction failure to an HTTP status: sentinel target
// errors are the client's fault (422), anything else is the server's
// (500).
func statusFor(err error) int {
	for _, sentinel := range []error{
		core.ErrNoTargets, core.ErrNoUsableTargets, core.ErrMixedSKUs,
	} {
		if errors.Is(err, sentinel) {
			return http.StatusUnprocessableEntity
		}
	}
	return http.StatusInternalServerError
}

// itemPanics counts the panics recovered in prediction items.
var itemPanics = parallel.NewPanicSite("served_item")

// predictOne resolves one validated request against the registry and runs
// the prediction, returning the rendered response or an error with its
// HTTP status. It is the goroutine boundary of one prediction item: a
// panic anywhere below it answers that item 500 with a
// *parallel.PanicError, and a batch's other items are still served.
func (s *Server) predictOne(req *PredictRequest) (resp *predictResponse, code int, err error) {
	defer func() {
		if v := recover(); v != nil {
			resp, code, err = nil, http.StatusInternalServerError, itemPanics.Error(v)
		}
	}()
	if s.testHookPredict != nil {
		s.testHookPredict(req)
	}
	p, err := s.registry.Get(req.Key)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	pred, dropped, err := p.PredictWithReport(req.Target, req.ToSKU)
	if err != nil {
		return nil, statusFor(err), err
	}
	if resp, err = renderPrediction(req.Key, pred, dropped); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return resp, http.StatusOK, nil
}

// writeJSON encodes v with a stable encoder configuration. Encoding full
// response structs in one shot keeps bodies byte-identical for identical
// requests.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// decodeFailure answers a decoding error: 413 for oversized bodies, 400
// for everything else.
func decodeFailure(w http.ResponseWriter, err error) {
	if errors.Is(err, errTooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, errTooLarge.Error())
		return
	}
	httpError(w, http.StatusBadRequest, err.Error())
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, err := decodePredictRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		decodeFailure(w, err)
		return
	}
	if !s.adm.tryAcquire(1) {
		w.Header().Set("Retry-After", s.adm.retryAfter())
		httpError(w, http.StatusTooManyRequests, "serve: prediction queue full")
		return
	}
	defer s.adm.release(1)
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}
	resp, code, err := s.predictOne(req)
	if err != nil {
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, code, resp)
}

// batchItemResult is one element of a batch response: either a prediction
// or that item's error, in input order.
type batchItemResult struct {
	Prediction *predictResponse `json:"prediction,omitempty"`
	Error      string           `json:"error,omitempty"`
}

// handleBatch serves micro-batched predictions: the whole batch is
// admitted against the bounded queue at once (429 when it does not fit),
// then fans out through the deterministic parallel engine. Results come
// back in input order and per-item failures do not fail their siblings.
//
// A batch larger than the queue itself can never be admitted — tryAcquire
// cannot grant more slots than exist — so answering it 429 + Retry-After
// would livelock a compliant client into retrying forever. Those batches
// get a non-retryable 413 instead: the client must split the batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqs, err := decodeBatchRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		decodeFailure(w, err)
		return
	}
	if len(reqs) > s.adm.capacity() {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("serve: batch of %d items exceeds the queue capacity of %d; split the batch", len(reqs), s.adm.capacity()))
		return
	}
	if !s.adm.tryAcquire(len(reqs)) {
		w.Header().Set("Retry-After", s.adm.retryAfter())
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("serve: %d batch items exceed the queue's free capacity", len(reqs)))
		return
	}
	defer s.adm.release(len(reqs))
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}
	results, _ := parallel.Map(len(reqs), func(i int) (batchItemResult, error) {
		resp, _, err := s.predictOne(reqs[i])
		if err != nil {
			return batchItemResult{Error: err.Error()}, nil
		}
		return batchItemResult{Prediction: resp}, nil
	})
	writeJSON(w, http.StatusOK, struct {
		Results []batchItemResult `json:"results"`
	}{results})
}

// probeJSON is the health/readiness payload. The snapshot section (absent
// when durability is off) lets the router and operators distinguish a
// cold instance from a warm-restored one and watch durability degrade
// (write errors, skipped restores) before a restart depends on it.
type probeJSON struct {
	Status    string              `json:"status"`
	Snapshots *snapshotStatusJSON `json:"snapshots,omitempty"`
	Drift     *driftStatusJSON    `json:"drift,omitempty"`
}

// handleHealthz reports process liveness: 200 as long as the handler can
// run at all, with the snapshot/durability and drift status alongside.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, probeJSON{
		Status:    "ok",
		Snapshots: s.snapshotStatus(),
		Drift:     s.driftStatus(),
	})
}

// handleReadyz reports readiness: 503 until RestoreSnapshots and Warmup
// complete (and again once Shutdown begins), 200 in between.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ready", http.StatusOK
	if !s.ready.Load() {
		status, code = "warming up", http.StatusServiceUnavailable
		if s.snaps != nil && s.snaps.restorePending.Load() {
			status = "restoring snapshots"
		}
	}
	writeJSON(w, code, probeJSON{Status: status, Snapshots: s.snapshotStatus()})
}
