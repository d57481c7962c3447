// Package simeval evaluates workload-similarity computation along the
// three dimensions of §5.2: reliability (leave-one-out 1-NN accuracy and
// mean average precision), discrimination power (NDCG with graded
// relevance), and robustness (dispersion of normalized distances across
// repeated runs).
package simeval

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"wpred/internal/distance"
	"wpred/internal/fingerprint"
	"wpred/internal/obs"
	"wpred/internal/parallel"
	"wpred/internal/stat"
)

// Item is one fingerprinted experiment with its ground-truth labels.
type Item struct {
	// Workload is the ground-truth workload name.
	Workload string
	// Class is the workload class name ("transactional", "analytical",
	// "mixed") used for graded NDCG relevance.
	Class string
	// Run identifies the experiment repetition (for robustness grouping).
	Run int
	// Exp optionally identifies the source experiment. When set, 1-NN and
	// mAP exclude candidates with the same Exp, so sub-experiments of one
	// run cannot trivially match their own siblings — the accuracy then
	// measures cross-run generalization.
	Exp string
	// FP is the encoded representation.
	FP *fingerprint.Fingerprint
}

// excluded reports whether candidate j must be skipped for query q
// (same item or same source experiment).
func (m *Matrix) excluded(q, j int) bool {
	if q == j {
		return true
	}
	return m.Items[q].Exp != "" && m.Items[q].Exp == m.Items[j].Exp
}

// Matrix holds all pairwise distances for an item set under one metric.
type Matrix struct {
	Items []Item
	D     [][]float64
	// Stats accounts for how the upper-triangle pairs were resolved.
	Stats MatrixStats
}

// Pair-evaluation accounting across matrix computations, by outcome:
// "exact" pairs paid a full metric evaluation, "cached" pairs were served
// by a PairCache. exact + cached always equals the pairs the matrices were
// asked about (TestPairAccountingReconciles).
var (
	simPairsExact = obs.GetCounter("wpred_simeval_pairs_total",
		"Similarity-stage pair evaluations by outcome.", obs.Labels{"outcome": "exact"})
	simPairsCached = obs.GetCounter("wpred_simeval_pairs_total",
		"Similarity-stage pair evaluations by outcome.", obs.Labels{"outcome": "cached"})
)

// MatrixStats accounts for one matrix computation: every upper-triangle
// pair either hit the cache or was evaluated exactly.
type MatrixStats struct {
	// Total is the number of upper-triangle pairs.
	Total int
	// Exact is the number of pairs that paid a metric evaluation.
	Exact int
	// Cached is the number of pairs served from the PairCache.
	Cached int
}

// Cache metrics aggregated across every PairCache in the process (in
// practice one per experiment suite); the production-facing view of the
// per-cache Stats counters.
var (
	cacheHits = obs.GetCounter("wpred_paircache_hits_total",
		"Pairwise-distance cache lookups served from memory.", nil)
	cacheMisses = obs.GetCounter("wpred_paircache_misses_total",
		"Pairwise-distance cache lookups that required a metric evaluation.", nil)
	cacheEntries = obs.GetGauge("wpred_paircache_entries",
		"Live entries across all pairwise-distance caches.", nil)
)

// PairCache memoizes pairwise distances across matrix computations. Keys
// combine a caller-chosen namespace (identifying the item set and its
// representation — metric distances are only reusable between identically
// fingerprinted item sets), the metric name, and the experiment pair, so
// figures that revisit a matrix another experiment already computed skip
// the O(n²·DTW) recomputation entirely. Safe for concurrent use: lookups
// take only the read lock and count hits/misses on atomics, so cache-hot
// matrix computations never serialize the worker pool on the mutex (see
// BenchmarkPairCacheLookupParallel).
type PairCache struct {
	mu           sync.RWMutex
	m            map[pairKey]float64
	hits, misses atomic.Int64
}

type pairKey struct {
	ns, metric string
	i, j       int
}

// NewPairCache returns an empty cache.
func NewPairCache() *PairCache {
	return &PairCache{m: map[pairKey]float64{}}
}

func (c *PairCache) lookup(k pairKey) (float64, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		cacheHits.Inc()
	} else {
		c.misses.Add(1)
		cacheMisses.Inc()
	}
	return v, ok
}

func (c *PairCache) store(k pairKey, v float64) {
	c.mu.Lock()
	if _, exists := c.m[k]; !exists {
		cacheEntries.Add(1)
	}
	c.m[k] = v
	c.mu.Unlock()
}

// Stats reports cache hits and misses (for tests and capacity planning).
func (c *PairCache) Stats() (hits, misses int) {
	return int(c.hits.Load()), int(c.misses.Load())
}

// Len reports the number of cached pairs.
func (c *PairCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// ComputeMatrix evaluates the metric on every item pair. The upper
// triangle fans out over the parallel worker pool; results land by pair
// index, so the matrix is bit-identical to a serial computation.
func ComputeMatrix(items []Item, m distance.Metric) (*Matrix, error) {
	return ComputeMatrixCached(items, m, nil, "")
}

// ComputeMatrixCached is ComputeMatrix with a pairwise-distance cache. The
// namespace must uniquely identify the item set and its fingerprint
// configuration; callers that cannot guarantee that must pass a nil cache.
func ComputeMatrixCached(items []Item, m distance.Metric, cache *PairCache, ns string) (*Matrix, error) {
	n := len(items)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	// Linearize the strict upper triangle: pair p ↦ (rows[p], cols[p]).
	npairs := n * (n - 1) / 2
	rows := make([]int, npairs)
	cols := make([]int, npairs)
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			rows[p], cols[p] = i, j
			p++
		}
	}
	var fromCache atomic.Int64
	vals, err := parallel.Map(npairs, func(p int) (float64, error) {
		i, j := rows[p], cols[p]
		key := pairKey{ns: ns, metric: m.Name(), i: i, j: j}
		if cache != nil {
			if v, ok := cache.lookup(key); ok {
				fromCache.Add(1)
				return v, nil
			}
		}
		v, err := m.Distance(items[i].FP.M, items[j].FP.M)
		if err != nil {
			return 0, fmt.Errorf("simeval: %s(%s,%s): %w", m.Name(), items[i].Workload, items[j].Workload, err)
		}
		if cache != nil {
			cache.store(key, v)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	for p, v := range vals {
		d[rows[p]][cols[p]] = v
		d[cols[p]][rows[p]] = v
	}
	stats := MatrixStats{Total: npairs, Cached: int(fromCache.Load())}
	stats.Exact = stats.Total - stats.Cached
	simPairsExact.Add(uint64(stats.Exact))
	simPairsCached.Add(uint64(stats.Cached))
	return &Matrix{Items: items, D: d, Stats: stats}, nil
}

// OneNNAccuracy is the leave-one-out nearest-neighbor accuracy: the
// fraction of items whose nearest other item shares their workload. This
// is the paper's primary "accuracy" for both feature selection (Table 3)
// and similarity reliability.
func (m *Matrix) OneNNAccuracy() float64 {
	n := len(m.Items)
	if n < 2 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		best, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if m.excluded(i, j) {
				continue
			}
			if m.D[i][j] < bestD {
				best, bestD = j, m.D[i][j]
			}
		}
		if best >= 0 && m.Items[best].Workload == m.Items[i].Workload {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// MAP is the mean average precision: for each query item, rank all other
// items by distance; relevant items share the query's workload.
func (m *Matrix) MAP() float64 {
	n := len(m.Items)
	if n < 2 {
		return 0
	}
	sumAP := 0.0
	queries := 0
	for q := 0; q < n; q++ {
		order := m.ranking(q)
		relevant := 0
		ap := 0.0
		hits := 0
		for rank, j := range order {
			if m.Items[j].Workload == m.Items[q].Workload {
				hits++
				ap += float64(hits) / float64(rank+1)
			}
		}
		relevant = hits
		if relevant == 0 {
			continue
		}
		sumAP += ap / float64(relevant)
		queries++
	}
	if queries == 0 {
		return 0
	}
	return sumAP / float64(queries)
}

// relevance grades an item against a query: 2 for the same workload, 1
// for the same workload class (the expert-judgment "similar" grade), 0
// otherwise.
func relevance(q, x Item) float64 {
	if x.Workload == q.Workload {
		return 2
	}
	if x.Class != "" && x.Class == q.Class {
		return 1
	}
	return 0
}

// NDCG is the mean normalized discounted cumulative gain over all
// queries, with graded relevance (identical workload > same class >
// different). It quantifies discrimination power: metrics that assign
// short distances to similar workloads and long ones to dissimilar
// workloads score 1.
func (m *Matrix) NDCG() float64 {
	n := len(m.Items)
	if n < 2 {
		return 0
	}
	total := 0.0
	for q := 0; q < n; q++ {
		order := m.ranking(q)
		dcg := 0.0
		rels := make([]float64, len(order))
		for rank, j := range order {
			rel := relevance(m.Items[q], m.Items[j])
			rels[rank] = rel
			dcg += (math.Pow(2, rel) - 1) / math.Log2(float64(rank+2))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(rels)))
		idcg := 0.0
		for rank, rel := range rels {
			idcg += (math.Pow(2, rel) - 1) / math.Log2(float64(rank+2))
		}
		if idcg > 0 {
			total += dcg / idcg
		}
	}
	return total / float64(n)
}

// ranking returns the non-excluded items sorted by ascending distance from
// q, with index order as the deterministic tie-break.
func (m *Matrix) ranking(q int) []int {
	order := make([]int, 0, len(m.Items)-1)
	for j := range m.Items {
		if !m.excluded(q, j) {
			order = append(order, j)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return m.D[q][order[a]] < m.D[q][order[b]] })
	return order
}

// PairStat summarizes the normalized distances between one query workload
// and one reference workload across repeated runs: the bar-with-error-bars
// of Figures 5–7.
type PairStat struct {
	Query, Reference string
	Mean, StdErr     float64
	N                int
}

// RobustnessReport computes, for the given query workload, the mean and
// standard error of the normalized distance to every workload (including
// itself, across different runs). Distances are normalized per query item
// by the maximum distance from that item, following the paper's
// mean-normalized-distance confidence measure.
func (m *Matrix) RobustnessReport(query string) []PairStat {
	type agg struct{ vals []float64 }
	byRef := map[string]*agg{}
	for qi, q := range m.Items {
		if q.Workload != query {
			continue
		}
		// Normalize this query row by its max.
		maxD := 0.0
		for j := range m.Items {
			if j != qi && m.D[qi][j] > maxD {
				maxD = m.D[qi][j]
			}
		}
		if maxD <= 0 {
			maxD = 1
		}
		for j, x := range m.Items {
			if j == qi {
				continue
			}
			a := byRef[x.Workload]
			if a == nil {
				a = &agg{}
				byRef[x.Workload] = a
			}
			a.vals = append(a.vals, m.D[qi][j]/maxD)
		}
	}
	names := make([]string, 0, len(byRef))
	for n := range byRef {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]PairStat, 0, len(names))
	for _, n := range names {
		a := byRef[n]
		out = append(out, PairStat{
			Query:     query,
			Reference: n,
			Mean:      stat.Mean(a.vals),
			StdErr:    stat.StdErr(a.vals),
			N:         len(a.vals),
		})
	}
	return out
}

// NearestWorkload returns, for a query item index, the reference workload
// with the smallest mean distance from the query, plus the per-workload
// mean distances. It is the decision rule of the end-to-end pipeline
// (§6.2.3).
func (m *Matrix) NearestWorkload(q int) (string, map[string]float64) {
	sums := map[string]float64{}
	counts := map[string]int{}
	for j, x := range m.Items {
		if j == q || x.Workload == m.Items[q].Workload {
			continue
		}
		sums[x.Workload] += m.D[q][j]
		counts[x.Workload]++
	}
	best := ""
	bestD := math.Inf(1)
	for w := range sums {
		sums[w] /= float64(counts[w])
		if sums[w] < bestD {
			best, bestD = w, sums[w]
		}
	}
	return best, sums
}
