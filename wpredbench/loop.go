package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// exchange is one HTTP request's raw result.
type exchange struct {
	code    int
	body    []byte
	err     error
	latency time.Duration
}

// step is one executed schedule position: the prediction request and, on
// key-churn, the observation that follows it.
type step struct {
	pos     int
	req     *request
	predict exchange
	observe *exchange
	// waitErr reports a drift refit that never completed.
	waitErr error
}

// client sends a workload's requests through send and, after an
// observation that triggered a drift refit, waits for the refit to finish
// before the next request, so the registry changes in the same order on
// every run.
type client struct {
	ctx     context.Context
	in      *inputs
	send    func(path string, body []byte) exchange
	metrics func() (map[string]float64, error)

	refits atomic.Int64
	// idle is fit_seconds_count − fits − refits when no training runs:
	// both counters rise when a fit starts, the histogram when it ends.
	idle float64
}

// Series the client and the per-layer report read from /metrics.
const (
	mFitCount    = "wpred_serve_registry_fit_seconds_count"
	mFitSum      = "wpred_serve_registry_fit_seconds_sum"
	mFits        = "wpred_serve_registry_fits_total"
	mRefits      = "wpred_serve_registry_refits_total"
	mHits        = "wpred_serve_registry_hits_total"
	mMisses      = "wpred_serve_registry_misses_total"
	mRestores    = "wpred_serve_registry_restores_total"
	mEvictions   = "wpred_serve_registry_evictions_total"
	mRejected    = "wpred_serve_rejected_total"
	mSnapWrites  = "wpred_serve_snapshot_writes_total"
	mDriftObs    = "wpred_drift_observations_total"
	mDriftEvents = "wpred_drift_events_total"
	mDriftRefits = "wpred_drift_refits_total"
	mTasks       = "wpred_parallel_tasks_started_total"
	mWaitSum     = "wpred_parallel_queue_wait_seconds_sum"
	mWaitCount   = "wpred_parallel_queue_wait_seconds_count"
)

// stageSeries names one pipeline stage histogram series.
func stageSeries(op, stage, suffix string) string {
	return fmt.Sprintf("wpred_pipeline_stage_duration_seconds_%s{op=%q,stage=%q}", suffix, op, stage)
}

// calibrate records the idle training balance; call it while no fit runs.
func (cl *client) calibrate() error {
	m, err := cl.metrics()
	if err != nil {
		return err
	}
	cl.idle = m[mFitCount] - m[mFits] - m[mRefits]
	cl.refits.Store(int64(m[mRefits]))
	return nil
}

// awaitRefits polls the server's counters until every refit triggered so
// far has started and no fit or refit is still training.
func (cl *client) awaitRefits() error {
	deadline := time.Now().Add(60 * time.Second)
	for settled := 0; settled < 2; {
		m, err := cl.metrics()
		if err != nil {
			return err
		}
		if m[mRefits] >= float64(cl.refits.Load()) && m[mFitCount]-m[mFits]-m[mRefits] == cl.idle {
			// One more scrape after the counters settle covers the swap
			// that follows the histogram update under the registry lock.
			settled++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drift refit still training after 60 s")
		}
		if err := cl.ctx.Err(); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// warmUp sends the untimed prefix one request at a time: key-churn's
// settle requests, or one request per connection on the cyclic
// workloads. It returns the steps and the first position the measured
// phase sends.
func (cl *client) warmUp() ([]step, int) {
	in := cl.in
	if !in.wl.cyclic {
		steps := make([]step, len(in.settle))
		for i := range in.settle {
			steps[i] = cl.do(-1-i, &in.settle[i])
		}
		return steps, 0
	}
	steps := make([]step, in.wl.conns)
	for pos := range steps {
		r, _ := in.at(pos)
		steps[pos] = cl.do(pos, r)
	}
	return steps, in.wl.conns
}

// do executes one schedule position.
func (cl *client) do(pos int, r *request) step {
	st := step{pos: pos, req: r}
	if r.path != "" {
		st.predict = cl.send(r.path, r.body)
	}
	if r.obs == nil {
		return st
	}
	ob := cl.send("/v1/observe", r.obs.body)
	st.observe = &ob
	if ob.err == nil && ob.code == http.StatusOK && bytes.Contains(ob.body, []byte(`"refit":true`)) {
		cl.refits.Add(1)
		st.waitErr = cl.awaitRefits()
	}
	return st
}

// closedLoop runs conns workers that each send the next schedule position
// as soon as their previous one completes, from position first until the
// position limit or until passes, whichever comes first. Past until, the
// loop still sends the workload's minimum phase and finishes its current
// cycle of positions. It returns the steps in position order and the wall
// time from start until the last step completed.
func (cl *client) closedLoop(conns, first, limit int, until time.Time) ([]step, time.Duration) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		steps []step
		wg    sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pos := int(next.Add(1) - 1)
				r, ok := cl.in.at(pos)
				sent := pos - first
				if !ok || pos >= limit || cl.ctx.Err() != nil ||
					(!time.Now().Before(until) && sent%cl.in.wl.align == 0 && sent >= cl.in.wl.minPhase) {
					return
				}
				st := cl.do(pos, r)
				mu.Lock()
				steps = append(steps, st)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(steps, func(a, b int) bool { return steps[a].pos < steps[b].pos })
	return steps, elapsed
}

// httpSender posts request bodies to a wpredd over at most conns
// keep-alive connections and times each exchange from send to the last
// response byte.
func httpSender(ctx context.Context, base string, conns int) func(string, []byte) exchange {
	client := &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return func(path string, body []byte) exchange {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return exchange{err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return exchange{err: err, latency: time.Since(t0)}
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return exchange{code: resp.StatusCode, body: b, err: err, latency: time.Since(t0)}
	}
}

// tally counts the outcomes of one request kind.
type tally struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Refused   int `json:"refused"`
	Client4xx int `json:"client_4xx"`
	Server5xx int `json:"server_5xx"`
	Transport int `json:"transport"`
	ItemError int `json:"item_error"`
	Wrong     int `json:"wrong"`
}

func (t *tally) failed() int { return t.Attempted - t.OK }

// classify counts n items of one exchange that did not return 200.
func (t *tally) classify(ex exchange, n int) {
	t.Attempted += n
	switch {
	case ex.err != nil:
		t.Transport += n
	case ex.code == http.StatusTooManyRequests || ex.code == http.StatusRequestEntityTooLarge:
		t.Refused += n
	case ex.code >= 400 && ex.code < 500:
		t.Client4xx += n
	case ex.code >= 500:
		t.Server5xx += n
	default:
		t.Wrong += n
	}
}

// accounting is the verified outcome of a set of steps.
type accounting struct {
	predict, batchItem, observe tally
	// latencies are client latencies of prediction requests, in ms.
	latencies []float64
	// preds are the verified predictions in step order, for repeat shares.
	preds []*predictJSON
	// problems lists the first few check failures.
	problems []string
}

func (a *accounting) problem(format string, args ...any) {
	if len(a.problems) < 10 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

func (a *accounting) attempted() int {
	return a.predict.Attempted + a.batchItem.Attempted + a.observe.Attempted
}

func (a *accounting) failed() int {
	return a.predict.failed() + a.batchItem.failed() + a.observe.failed()
}

// okItems counts prediction items answered correctly.
func (a *accounting) okItems() int { return a.predict.OK + a.batchItem.OK }

// verifier checks every response of a run and keeps the state the checks
// need across steps: the first body seen per cyclic schedule entry, and
// the drift oracle.
type verifier struct {
	o      *oracle
	drift  *driftOracle
	firsts map[int][]byte
}

func newVerifier(o *oracle) *verifier {
	return &verifier{o: o, drift: newDriftOracle(o.in.seed), firsts: map[int][]byte{}}
}

// check verifies steps (in position order) into acct. Steps must be fed
// in the order the server received them, since observations are stateful.
func (v *verifier) check(steps []step, acct *accounting) {
	for i := range steps {
		st := &steps[i]
		if st.req.path != "" {
			v.checkPredict(st, acct)
		}
		if st.observe != nil {
			v.checkObserve(st, acct)
		}
	}
}

func (v *verifier) checkPredict(st *step, acct *accounting) {
	t := &acct.predict
	if len(st.req.items) > 1 {
		t = &acct.batchItem
	}
	ex := st.predict
	if ex.err == nil {
		acct.latencies = append(acct.latencies, float64(ex.latency)/float64(time.Millisecond))
	}
	if ex.err != nil || ex.code != http.StatusOK {
		t.classify(ex, len(st.req.items))
		acct.problem("position %d: %s", st.pos, describe(ex))
		return
	}
	t.Attempted += len(st.req.items)
	verdicts, preds, err := v.o.verifyPredict(st.req, ex.body)
	if err != nil {
		acct.problem("position %d: %v", st.pos, err)
	}
	if v.o.in.wl.cyclic {
		slot := st.pos % len(v.o.in.reqs)
		if first, ok := v.firsts[slot]; !ok {
			v.firsts[slot] = ex.body
		} else if !bytes.Equal(first, ex.body) {
			acct.problem("position %d: body differs from an earlier answer to the same request", st.pos)
			for j := range verdicts {
				verdicts[j] = itemWrong
			}
		}
	}
	for j, vd := range verdicts {
		switch vd {
		case itemOK:
			t.OK++
			acct.preds = append(acct.preds, preds[j])
		case itemError:
			t.ItemError++
		default:
			t.Wrong++
		}
	}
}

func (v *verifier) checkObserve(st *step, acct *accounting) {
	want := v.drift.next(st.req)
	ob := *st.observe
	switch {
	case ob.err != nil || ob.code != http.StatusOK:
		acct.observe.classify(ob, 1)
		acct.problem("position %d observe: %s", st.pos, describe(ob))
		return
	case st.waitErr != nil:
		acct.observe.Attempted++
		acct.observe.Wrong++
		acct.problem("position %d observe: %v", st.pos, st.waitErr)
		return
	}
	acct.observe.Attempted++
	if err := verifyObserve(ob.body, want); err != nil {
		acct.observe.Wrong++
		acct.problem("position %d observe: %v", st.pos, err)
		return
	}
	acct.observe.OK++
}

func describe(ex exchange) string {
	if ex.err != nil {
		return "transport error: " + ex.err.Error()
	}
	msg := bytes.TrimSpace(ex.body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return fmt.Sprintf("status %d: %s", ex.code, msg)
}

// responseDigest hashes the response bodies of the first n positions in
// order; every position below n must be among steps.
func responseDigest(steps []step, n int) (string, error) {
	var bodies [][]byte
	for _, st := range steps {
		if st.pos < 0 {
			continue
		}
		if st.pos >= n {
			break
		}
		if st.pos != len(bodies)/2 {
			return "", fmt.Errorf("position %d missing from the digest range", len(bodies)/2)
		}
		var ob []byte
		if st.observe != nil {
			ob = st.observe.body
		}
		bodies = append(bodies, st.predict.body, ob)
	}
	if len(bodies)/2 < n {
		return "", fmt.Errorf("only %d of %d digest positions answered", len(bodies)/2, n)
	}
	return sha256Hex(bodies...), nil
}

// marshalLine renders v as one JSON line.
func marshalLine(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
