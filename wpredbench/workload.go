package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"

	"wpred"
	"wpred/internal/bench"
	"wpred/internal/drift"
	"wpred/internal/serve"
	"wpred/internal/telemetry"
)

// Registry keys the workloads send.
var (
	// defaultKey is the paper's recommended configuration and wpredd's
	// default registry key.
	defaultKey = serve.Key{Selection: "RFE LogReg", Metric: "L2,1", Model: "SVM"}
	// heavyKey swaps the scaling model for the MLP of the paper's Table 6.
	heavyKey = serve.Key{Selection: "RFE LogReg", Metric: "L2,1", Model: "NNet"}
	// churnKeys is wpredload's cold-key pool: cheap filter selections on
	// cheap scaling models, so a fit costs milliseconds and a registry miss
	// costs what the snapshot layer costs.
	churnKeys = []serve.Key{
		{Selection: "Variance", Metric: "Fro", Model: "Regression"},
		{Selection: "Variance", Metric: "L1,1", Model: "Regression"},
		{Selection: "Variance", Metric: "Canb", Model: "Regression"},
		{Selection: "Pearson", Metric: "L2,1", Model: "Regression"},
		{Selection: "Pearson", Metric: "Fro", Model: "Regression"},
		{Selection: "Pearson", Metric: "L1,1", Model: "Regression"},
		{Selection: "Variance", Metric: "L2,1", Model: "SVM"},
		{Selection: "Pearson", Metric: "Canb", Model: "Regression"},
	}
)

const (
	// batchItems is the bulk-batch item count per request.
	batchItems = 8
	// churnCap is key-churn's registry capacity: half the key pool.
	churnCap = 4
	// churnMissEvery makes every fourth key-churn predict a registry miss
	// (25%), so the median sits among hits and the tail among misses.
	churnMissEvery = 4
	// churnShapeSeed fixes key-churn's key sequence: popularity, hits and
	// misses. The run seed picks the targets, the SKUs and the demand
	// noise; with the sequence fixed, every seed does the same restores
	// and drift refits on the same keys, so seeds differ in data only.
	churnShapeSeed = 0x6b65792d636875
	// churnEpisode is the length, in observations of one key, of each
	// abrupt demand episode: a key's stream chains episodes, stepping up
	// two fifths into each and back down at each boundary.
	churnEpisode = 640
	// churnHistory is how many observations of each settled key's stream
	// the untimed warm-up sends: at least the detector's context (a season
	// of 24 plus 8), and exactly the observations before the step, so each
	// settled key's first measured observation confirms a drift and the
	// next confirmation lies beyond a run's reach.
	churnHistory = churnEpisode * 2 / 5
	// churnLen bounds key-churn's schedule; far more pairs than a run at
	// today's speed completes.
	churnLen = 2048
)

// toCPUs are the target SKU sizes predictions ask for.
var toCPUs = []int{8, 16}

// driftConfig is wpredd's drift detector configuration: the defaults,
// seeded like the server.
func driftConfig(seed uint64) drift.Config {
	return drift.Config{Seed: seed}
}

// item is one prediction: a target document and the SKU to predict for.
type item struct {
	target int
	toCPUs int
}

// observation is the /v1/observe feedback that follows a key-churn predict.
type observation struct {
	tick      int64
	observed  float64
	predicted float64
	body      []byte
}

// request is one scheduled prediction request (single or batch), plus the
// observation sent after it on key-churn. A request with an empty path is
// an observation alone.
type request struct {
	key   serve.Key
	items []item
	path  string
	body  []byte
	obs   *observation
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	wl   *workload
	seed uint64
	// refs is the reference library wpredd trains on; it equals what
	// wpredd simulates from the same seed.
	refs    []*telemetry.Experiment
	targets []*telemetry.Experiment
	docs    []json.RawMessage
	// settle is key-churn's untimed prefix: four distinct keys, after which
	// the registry holds exactly those keys whatever the boot state,
	// followed by observation-only requests that give those keys a drift
	// history.
	settle []request
	// reqs is the schedule. Bulk-batch and heavy-model cycle through it;
	// key-churn runs it once, in order.
	reqs []request
	sum  string // cached digest
}

// at returns the i-th request of the run.
func (in *inputs) at(i int) (*request, bool) {
	if in.wl.cyclic {
		return &in.reqs[i%len(in.reqs)], true
	}
	if i >= len(in.reqs) {
		return nil, false
	}
	return &in.reqs[i], true
}

// workload is one traffic mix.
type workload struct {
	name string
	// conns is the closed loop's connection count.
	conns int
	// cyclic workloads repeat their schedule; the others run it once.
	cyclic bool
	// align makes a measured phase end on a whole number of this many
	// positions, so it holds complete hit/miss cycles.
	align int
	// minPhase is the fewest positions a measured phase sends, however
	// slow the host: key-churn's tail percentile must fall among misses.
	minPhase int
	// traceRequests is how many requests the traced run replays per 10 s
	// of --seconds; fixed, so its counts repeat exactly for a seed.
	traceRequests int
	// library makes wpredd load the reference library with -telemetry
	// from a file the benchmark writes, so set-up reads and decodes it
	// instead of simulating it.
	library bool
	build   func(in *inputs) error
	// flags returns wpredd's flags for the run's working directory.
	flags func(in *inputs, dir string) []string
}

var workloads = []*workload{
	{
		name: "bulk-batch", conns: 2, cyclic: true, align: 1, traceRequests: 53, library: true,
		build: func(in *inputs) error { return in.buildFixed(defaultKey, 2, 8, batchItems) },
		flags: func(in *inputs, dir string) []string { return nil },
	},
	{
		name: "heavy-model", conns: 2, cyclic: true, align: 1, traceRequests: 8, library: true,
		build: func(in *inputs) error { return in.buildFixed(heavyKey, 1, 1, 1) },
		flags: func(in *inputs, dir string) []string {
			return []string{"-warm", keyFlag(heavyKey)}
		},
	},
	{
		name: "key-churn", conns: 1, align: churnMissEvery, minPhase: 88, traceRequests: 20,
		build: func(in *inputs) error { return in.buildChurn() },
		flags: func(in *inputs, dir string) []string {
			return []string{
				"-registry-cap", fmt.Sprint(churnCap),
				"-snapshot-dir", filepath.Join(dir, "snapshots"),
				"-warm", keyFlag(churnKeys[0]),
			}
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func keyFlag(k serve.Key) string { return k.Selection + "|" + k.Metric + "|" + k.Model }

// referenceSKUs are wpredd's default simulated SKUs (-skus 2,4,8,16).
func referenceSKUs() []wpred.SKU {
	var out []wpred.SKU
	for _, c := range []int{2, 4, 8, 16} {
		out = append(out, wpred.SKU{CPUs: c, MemoryGB: 8 * c})
	}
	return out
}

// generate builds a workload's inputs from the seed.
func generate(wl *workload, seed uint64) (*inputs, error) {
	in := &inputs{wl: wl, seed: seed}
	// wpredd's default library: -terminals 8, -runs 3 over the default SKUs.
	in.refs = wpred.GenerateSuite(wpred.ReferenceWorkloads(), referenceSKUs(), []int{8}, 3, wpred.NewSource(seed))
	if err := wl.build(in); err != nil {
		return nil, err
	}
	return in, nil
}

// makeTargets draws the target pool: the five standard workloads profiled
// on 2- and 4-CPU SKUs, runs times each.
func (in *inputs) makeTargets(runs int) error {
	src := telemetry.NewSource(in.seed).Child("wpredbench/targets")
	skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
	in.targets = bench.GenerateSuite(bench.Standard(), skus, []int{8}, runs, src)
	in.docs = make([]json.RawMessage, len(in.targets))
	for i, e := range in.targets {
		var buf bytes.Buffer
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			return fmt.Errorf("target %d: %w", i, err)
		}
		in.docs[i] = buf.Bytes()
	}
	return nil
}

// itemStream returns a function giving the k-th prediction input of an
// endless stream that visits every (target, SKU) pair of the pool once per
// cycle, in a fresh seeded order each cycle. Every whole cycle holds each
// input equally often, so seeds differ in which documents they send but
// not in how the pool's sizes and costs are mixed.
func (in *inputs) itemStream() func(k int) item {
	var pool []item
	for t := range in.targets {
		for _, c := range toCPUs {
			pool = append(pool, item{target: t, toCPUs: c})
		}
	}
	cycles := map[int][]item{}
	return func(k int) item {
		c := k / len(pool)
		order, ok := cycles[c]
		if !ok {
			order = append([]item(nil), pool...)
			src := telemetry.NewSource(in.seed).Child(fmt.Sprintf("wpredbench/items/%d", c))
			src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			cycles[c] = order
		}
		return order[k%len(pool)]
	}
}

// buildFixed makes a cyclic schedule on one key: requests of the given
// number of single-target items (batch requests when more than one) that
// together hold whole cycles of the item stream.
func (in *inputs) buildFixed(key serve.Key, runs, cycles, items int) error {
	if err := in.makeTargets(runs); err != nil {
		return err
	}
	next := in.itemStream()
	inputs := len(in.targets) * len(toCPUs)
	if inputs*cycles%items != 0 {
		return fmt.Errorf("%d cycles of %d inputs do not fill requests of %d items", cycles, inputs, items)
	}
	in.reqs = make([]request, inputs*cycles/items)
	for i := range in.reqs {
		r := request{key: key, items: make([]item, items)}
		for j := range r.items {
			r.items[j] = next(i*items + j)
		}
		var err error
		if items == 1 {
			r.path = "/v1/predict"
			r.body, err = json.Marshal(in.predictWire(key, r.items[0]))
		} else {
			r.path = "/v1/predict/batch"
			wires := make([]predictWire, items)
			for j, it := range r.items {
				wires[j] = in.predictWire(key, it)
			}
			r.body, err = json.Marshal(struct {
				Requests []predictWire `json:"requests"`
			}{wires})
		}
		if err != nil {
			return err
		}
		in.reqs[i] = r
	}
	return nil
}

// predictWire is the /v1/predict request body.
type predictWire struct {
	Selection string `json:"selection"`
	Metric    string `json:"metric"`
	Model     string `json:"model"`
	ToSKU     struct {
		CPUs int `json:"cpus"`
	} `json:"to_sku"`
	Target []json.RawMessage `json:"target"`
}

func (in *inputs) predictWire(k serve.Key, it item) predictWire {
	w := predictWire{Selection: k.Selection, Metric: k.Metric, Model: k.Model}
	w.ToSKU.CPUs = it.toCPUs
	w.Target = []json.RawMessage{in.docs[it.target]}
	return w
}

// observeWire is the /v1/observe request body.
type observeWire struct {
	Selection string  `json:"selection"`
	Metric    string  `json:"metric"`
	Model     string  `json:"model"`
	Tick      int64   `json:"tick"`
	Observed  float64 `json:"observed"`
	Predicted float64 `json:"predicted"`
}

// churnRanks builds key-churn's key sequence as indexes into churnKeys,
// most popular first: a settle prefix of churnCap distinct keys, then n
// predicts against a simulated LRU of churnCap entries in which every
// churnMissEvery-th predict picks a non-resident key and the rest pick
// resident ones, each by popularity. The server's registry follows the
// same LRU rule, so its hit/miss sequence is known in advance.
func churnRanks(n int) (settle, ranks []int) {
	weights := make([]float64, len(churnKeys)) // Zipf popularity
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	src := telemetry.NewSource(churnShapeSeed)
	var lru []int // most recent first
	touch := func(r int) {
		for i, x := range lru {
			if x == r {
				lru = append(lru[:i], lru[i+1:]...)
				break
			}
		}
		lru = append([]int{r}, lru...)
		if len(lru) > churnCap {
			lru = lru[:churnCap]
		}
	}
	for r := churnCap - 1; r >= 0; r-- {
		settle = append(settle, r)
		touch(r)
	}
	ranks = make([]int, n)
	for p := range ranks {
		resident := map[int]bool{}
		for _, r := range lru {
			resident[r] = true
		}
		miss := p%churnMissEvery == churnMissEvery-1
		var pool []int
		var total float64
		for r := range weights {
			if resident[r] != miss {
				pool = append(pool, r)
				total += weights[r]
			}
		}
		u := src.Float64() * total
		pick := pool[len(pool)-1]
		for _, r := range pool {
			if u < weights[r] {
				pick = r
				break
			}
			u -= weights[r]
		}
		ranks[p] = pick
		touch(pick)
	}
	return settle, ranks
}

// buildChurn makes key-churn's schedule: skewed predicts over the churn
// keys, each followed by an observation from that key's seeded chain of
// abrupt demand episodes.
func (in *inputs) buildChurn() error {
	if err := in.makeTargets(1); err != nil {
		return err
	}
	settleRanks, ranks := churnRanks(churnLen)

	bodies := map[string][]byte{}
	single := func(k serve.Key, it item) (request, error) {
		id := fmt.Sprintf("%s/%d/%d", keyFlag(k), it.target, it.toCPUs)
		body, ok := bodies[id]
		if !ok {
			var err error
			if body, err = json.Marshal(in.predictWire(k, it)); err != nil {
				return request{}, err
			}
			bodies[id] = body
		}
		return request{key: k, items: []item{it}, path: "/v1/predict", body: body}, nil
	}
	next := in.itemStream()
	for i, r := range settleRanks {
		req, err := single(churnKeys[r], next(i))
		if err != nil {
			return err
		}
		in.settle = append(in.settle, req)
	}

	type episode struct{ key, n int }
	demand := map[episode]*bench.DemandScenario{}
	seen := map[int]int{} // next observation index, by key index
	observe := func(k int, tick int64) (*observation, error) {
		j := seen[k]
		seen[k]++
		ep := episode{k, j / churnEpisode}
		sc, ok := demand[ep]
		if !ok {
			src := telemetry.NewSource(in.seed).Child(fmt.Sprintf("wpredbench/demand/%d/%d", ep.key, ep.n))
			var err error
			if sc, err = bench.GenerateDemand(bench.DriftAbrupt, churnEpisode, src); err != nil {
				return nil, err
			}
			demand[ep] = sc
		}
		o := &observation{tick: tick, observed: sc.Series[j%churnEpisode], predicted: sc.Level}
		key := churnKeys[k]
		var err error
		o.body, err = json.Marshal(observeWire{
			Selection: key.Selection, Metric: key.Metric, Model: key.Model,
			Tick: o.tick, Observed: o.observed, Predicted: o.predicted,
		})
		return o, err
	}
	for _, r := range settleRanks {
		for j := 0; j < churnHistory; j++ {
			o, err := observe(r, int64(j-churnHistory))
			if err != nil {
				return err
			}
			in.settle = append(in.settle, request{key: churnKeys[r], obs: o})
		}
	}
	in.reqs = make([]request, len(ranks))
	for i, r := range ranks {
		req, err := single(churnKeys[r], next(len(settleRanks)+i))
		if err != nil {
			return err
		}
		if req.obs, err = observe(r, int64(i)); err != nil {
			return err
		}
		in.reqs[i] = req
	}
	return nil
}

// digest is a sha256 over every scheduled request body in order: equal
// digests mean byte-identical traffic. Bodies shared between requests are
// hashed once.
func (in *inputs) digest() string {
	if in.sum != "" {
		return in.sum
	}
	sums := map[*byte]string{}
	bodySum := func(b []byte) string {
		if len(b) == 0 {
			return ""
		}
		sum, ok := sums[&b[0]]
		if !ok {
			sum = sha256Hex(b)
			sums[&b[0]] = sum
		}
		return sum
	}
	h := sha256.New()
	for _, rs := range [][]request{in.settle, in.reqs} {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %s\n", r.path, bodySum(r.body))
			if r.obs != nil {
				fmt.Fprintf(h, "/v1/observe %s\n", bodySum(r.obs.body))
			}
		}
	}
	in.sum = hex.EncodeToString(h.Sum(nil))
	return in.sum
}
