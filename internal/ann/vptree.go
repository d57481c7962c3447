// Package ann provides a stdlib-only vantage-point tree over workload
// fingerprints, turning the O(N) exhaustive nearest-reference sweep into a
// sublinear lookup (the ROADMAP "Sublinear similarity at million-workload
// scale" item).
//
// The index has Fit-once/Query-many semantics: Build constructs the tree
// deterministically — vantage points are drawn from a seeded splitmix64
// stream, splits are median-radius with (distance, index) tie-breaks — and
// the resulting Index is immutable and safe for concurrent queries (each
// query owns its QueryBuffer).
//
// Two search modes, chosen by the distance:
//
//   - Exact mode, for true metric-space distances (L1,1, L2,1, Fro, Canb):
//     subtrees are pruned with the triangle inequality only when no item
//     inside can possibly beat the current k-th best, so k-NN and ε-range
//     results are identical to an exhaustive scan, ties and all.
//
//   - Approximate mode, for distances that violate the triangle inequality
//     (DTW, LCSS, Chi2, Corr): the same pruning rule is applied with an
//     additive slack τ (Config.Tau) — a subtree survives unless its
//     triangle-derived bound exceeds the k-th best by more than τ. Larger τ
//     prunes less and recalls more; τ = +Inf degenerates to the exhaustive
//     scan. For DTW, queries additionally run the distance cascade: the
//     per-item band envelope (built once at Build time) yields a cheap
//     lower bound that skips the dynamic program outright, and survivors
//     run the early-abandoning DP, which is bit-identical to the exact
//     distance whenever the pair survives. The cascade is loss-free — it
//     only ever skips pairs that provably cannot improve the result — so
//     it affects speed, never recall.
package ann

import (
	"fmt"
	"math"
	"sort"

	"wpred/internal/distance"
	"wpred/internal/fingerprint"
	"wpred/internal/mat"
	"wpred/internal/obs"
)

// Index traffic counters (see "Sublinear similarity" in DESIGN.md): nodes
// touched by tree traversal, library items skipped without an exact
// distance evaluation (by subtree pruning, envelope lower bounds, or DP
// early abandonment), and the exact refinements that remained.
var (
	annNodesVisited = obs.GetCounter("wpred_ann_nodes_visited_total",
		"VP-tree nodes visited across all index queries.", nil)
	annExact = obs.GetCounter("wpred_ann_exact_refinements_total",
		"Exact distance evaluations performed by index queries.", nil)
	annPrunedTree = obs.GetCounter("wpred_ann_pairs_pruned_total",
		"Library items skipped without an exact distance evaluation, by mechanism.",
		obs.Labels{"reason": "tree"})
	annPrunedLB = obs.GetCounter("wpred_ann_pairs_pruned_total",
		"Library items skipped without an exact distance evaluation, by mechanism.",
		obs.Labels{"reason": "lower_bound"})
	annPrunedEA = obs.GetCounter("wpred_ann_pairs_pruned_total",
		"Library items skipped without an exact distance evaluation, by mechanism.",
		obs.Labels{"reason": "early_abandon"})
)

// Item is one indexed fingerprint with its caller-meaningful label
// (simeval uses the reference experiment's workload name).
type Item struct {
	Label string
	FP    *fingerprint.Fingerprint
}

// Config tunes index construction.
type Config struct {
	// Seed drives the deterministic vantage-point selection (splitmix64
	// stream; 0 is a valid seed).
	Seed uint64
	// Tau is the approximate-mode pruning slack: a subtree is pruned only
	// when its triangle-derived bound exceeds the current k-th best
	// distance by more than Tau. Ignored in exact mode; negative or NaN is
	// an error; +Inf disables pruning entirely.
	Tau float64
}

// Result is one retrieved neighbor.
type Result struct {
	// Index is the item's position in the indexed slice.
	Index int
	// Label is the item's label.
	Label string
	// Distance is the exact distance to the query.
	Distance float64
}

// QueryStats accounts for one query's work. Exact + Pruned() always equals
// Total: every library item is either refined exactly or skipped by one of
// the three pruning mechanisms.
type QueryStats struct {
	// Total is the library size.
	Total int
	// NodesVisited counts tree nodes touched by the traversal.
	NodesVisited int
	// Exact counts full distance evaluations.
	Exact int
	// PrunedTree counts items skipped because their whole subtree was
	// outside the triangle-inequality bound.
	PrunedTree int
	// PrunedLB counts items rejected by the envelope lower bound before
	// the dynamic program ran (DTW cascade only).
	PrunedLB int
	// Abandoned counts items whose dynamic program early-abandoned against
	// the traversal cutoff (DTW cascade only).
	Abandoned int
}

// Pruned is the number of library items skipped without an exact distance
// evaluation.
func (s QueryStats) Pruned() int { return s.PrunedTree + s.PrunedLB + s.Abandoned }

// node is one VP-tree node in the flat arena.
type node struct {
	item            int32
	inside, outside int32 // arena indexes; -1 = none
	size            int32 // items in this subtree, vantage included
	radius          float64
}

// Index is an immutable VP-tree over a fingerprint library. Build once,
// query from any number of goroutines (one QueryBuffer per goroutine).
type Index struct {
	metric distance.Metric
	tau    float64
	exact  bool

	items []Item
	nodes []node
	root  int32

	// DTW cascade state: the metric as a DTW value plus one band envelope
	// per item, both zero/nil for other distances.
	dtw   distance.DTW
	isDTW bool
	envs  []*distance.Envelope
}

// metricSpace reports whether the named distance satisfies the triangle
// inequality, enabling exact-mode pruning. Of the study's norms, L1,1,
// L2,1, Frobenius, and Canberra are true metrics; chi-square,
// 1−correlation, DTW, and LCSS all violate it.
func metricSpace(name string) bool {
	switch name {
	case "L1,1", "L2,1", "Fro", "Canb":
		return true
	}
	return false
}

// splitmix64 is the repository's standard seed-expansion finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Build constructs the index over the items. The item order defines the
// deterministic tie-breaks, so the same (items, metric, config) always
// yields the same tree and the same query results.
func Build(items []Item, m distance.Metric, cfg Config) (*Index, error) {
	if m == nil {
		return nil, fmt.Errorf("ann: nil metric")
	}
	if cfg.Tau < 0 || math.IsNaN(cfg.Tau) {
		return nil, fmt.Errorf("ann: invalid tau %v", cfg.Tau)
	}
	for i, it := range items {
		if it.FP == nil || it.FP.M == nil {
			return nil, fmt.Errorf("ann: item %d (%s) has no fingerprint", i, it.Label)
		}
	}
	ix := &Index{
		metric: m,
		tau:    cfg.Tau,
		exact:  metricSpace(m.Name()),
		items:  items,
		root:   -1,
	}
	if d, ok := m.(distance.DTW); ok {
		ix.dtw = d
		ix.isDTW = true
		ix.envs = make([]*distance.Envelope, len(items))
		for i, it := range items {
			env, err := d.NewEnvelope(it.FP.M)
			if err != nil {
				return nil, fmt.Errorf("ann: envelope for item %d (%s): %w", i, it.Label, err)
			}
			ix.envs[i] = env
		}
	}
	if len(items) == 0 {
		return ix, nil
	}
	perm := make([]int32, len(items))
	for i := range perm {
		perm[i] = int32(i)
	}
	ix.nodes = make([]node, 0, len(items))
	b := &builder{ix: ix, state: splitmix64(cfg.Seed)}
	root, err := b.build(perm)
	if err != nil {
		return nil, err
	}
	ix.root = root
	return ix, nil
}

// builder carries construction state: the vantage-selection stream and the
// per-build distance scratch.
type builder struct {
	ix    *Index
	state uint64
	ws    mat.Workspace
	dists []float64
}

func (b *builder) build(perm []int32) (int32, error) {
	if len(perm) == 0 {
		return -1, nil
	}
	// Deterministic seeded vantage selection: one splitmix64 draw per
	// node, consumed in depth-first construction order.
	b.state = splitmix64(b.state)
	vp := int(b.state % uint64(len(perm)))
	perm[0], perm[vp] = perm[vp], perm[0]
	vantage := perm[0]
	rest := perm[1:]

	n := int32(len(b.ix.nodes))
	b.ix.nodes = append(b.ix.nodes, node{item: vantage, inside: -1, outside: -1, size: int32(len(perm))})
	if len(rest) == 0 {
		return n, nil
	}

	if cap(b.dists) < len(rest) {
		b.dists = make([]float64, len(rest))
	}
	dists := b.dists[:len(rest)]
	a := b.ix.items[vantage].FP.M
	for i, it := range rest {
		v, err := b.distance(a, int(it))
		if err != nil {
			return -1, fmt.Errorf("ann: build distance %s(%d,%d): %w", b.ix.metric.Name(), vantage, it, err)
		}
		dists[i] = v
	}
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if dists[order[x]] != dists[order[y]] {
			return dists[order[x]] < dists[order[y]]
		}
		return rest[order[x]] < rest[order[y]]
	})
	sorted := make([]int32, len(rest))
	for i, o := range order {
		sorted[i] = rest[o]
	}
	mid := len(sorted) / 2
	radius := dists[order[mid]]
	// b.dists is reused by the recursive calls; everything needed from it
	// is captured in radius and the sorted split.
	inside, err := b.build(sorted[:mid])
	if err != nil {
		return -1, err
	}
	outside, err := b.build(sorted[mid:])
	if err != nil {
		return -1, err
	}
	b.ix.nodes[n].radius = radius
	b.ix.nodes[n].inside = inside
	b.ix.nodes[n].outside = outside
	return n, nil
}

// distance evaluates the exact distance from matrix a to item j, reusing
// the builder's workspace on the DTW path.
func (b *builder) distance(a *mat.Dense, j int) (float64, error) {
	if b.ix.isDTW {
		return b.ix.dtw.DistanceWS(a, b.ix.items[j].FP.M, &b.ws)
	}
	return b.ix.metric.Distance(a, b.ix.items[j].FP.M)
}

// Len reports the number of indexed items.
func (ix *Index) Len() int { return len(ix.items) }

// Exact reports whether the index runs in exact mode (metric-space
// distance, results identical to an exhaustive scan).
func (ix *Index) Exact() bool { return ix.exact }

// Metric returns the indexed distance.
func (ix *Index) Metric() distance.Metric { return ix.metric }

// Items returns the indexed items (shared slice; do not mutate).
func (ix *Index) Items() []Item { return ix.items }

// Tau returns the approximate-mode pruning slack.
func (ix *Index) Tau() float64 { return ix.tau }

// slack is the traversal slack: 0 in exact mode, τ otherwise.
func (ix *Index) slack() float64 {
	if ix.exact {
		return 0
	}
	return ix.tau
}

// QueryBuffer holds one query's reusable scratch: the DTW workspace and
// the result-heap backing. One buffer per goroutine; the zero value is
// ready to use.
type QueryBuffer struct {
	ws  mat.Workspace
	res []Result
}

// searcher is the per-query traversal state, shared by KNN and Range.
type searcher struct {
	ix     *Index
	q      *mat.Dense
	k      int // 0 in range mode
	eps    float64
	ranged bool
	buf    *QueryBuffer
	heap   []Result // k-NN: max-heap under worse(); range: plain append
	stats  QueryStats
}

// worse orders results descending by (distance, index): x is worse than y
// when it is farther, or equally far with a larger index. The k-NN heap
// keeps the k best under the inverse of this order, matching an
// exhaustive scan's ascending (distance, index) sort, ties included.
func worse(x, y Result) bool {
	if x.Distance != y.Distance {
		return x.Distance > y.Distance
	}
	return x.Index > y.Index
}

// bound is the distance a new result must not exceed: the current k-th
// best (+Inf while the heap is short), or ε in range mode.
func (s *searcher) bound() float64 {
	if s.ranged {
		return s.eps
	}
	if len(s.heap) < s.k {
		return math.Inf(1)
	}
	return s.heap[0].Distance
}

// offer records an exactly-evaluated candidate.
func (s *searcher) offer(r Result) {
	if s.ranged {
		if r.Distance <= s.eps {
			s.heap = append(s.heap, r)
		}
		return
	}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, r)
		s.up(len(s.heap) - 1)
		return
	}
	if worse(s.heap[0], r) {
		s.heap[0] = r
		s.down(0)
	}
}

func (s *searcher) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(s.heap[i], s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *searcher) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(s.heap) && worse(s.heap[l], s.heap[w]) {
			w = l
		}
		if r < len(s.heap) && worse(s.heap[r], s.heap[w]) {
			w = r
		}
		if w == i {
			return
		}
		s.heap[i], s.heap[w] = s.heap[w], s.heap[i]
		i = w
	}
}

// KNN returns the k nearest indexed items to the query fingerprint,
// ascending by (distance, index). In exact mode the result equals an
// exhaustive scan's; in approximate mode recall depends on τ (measured by
// the annrecall experiment). buf may be nil; passing one reuses its
// scratch across queries. Safe for concurrent use with distinct buffers.
func (ix *Index) KNN(q *fingerprint.Fingerprint, k int, buf *QueryBuffer) ([]Result, QueryStats, error) {
	if k <= 0 {
		return nil, QueryStats{}, fmt.Errorf("ann: k must be positive, got %d", k)
	}
	return ix.search(q, k, 0, false, buf)
}

// Range returns every indexed item within eps of the query, ascending by
// (distance, index). Exact in exact mode; in approximate mode items whose
// subtree bound exceeded eps+τ may be missed.
func (ix *Index) Range(q *fingerprint.Fingerprint, eps float64, buf *QueryBuffer) ([]Result, QueryStats, error) {
	if eps < 0 || math.IsNaN(eps) {
		return nil, QueryStats{}, fmt.Errorf("ann: invalid range radius %v", eps)
	}
	return ix.search(q, 0, eps, true, buf)
}

func (ix *Index) search(q *fingerprint.Fingerprint, k int, eps float64, ranged bool, buf *QueryBuffer) ([]Result, QueryStats, error) {
	if q == nil || q.M == nil {
		return nil, QueryStats{}, fmt.Errorf("ann: nil query fingerprint")
	}
	if buf == nil {
		buf = &QueryBuffer{}
	}
	s := &searcher{ix: ix, q: q.M, k: k, eps: eps, ranged: ranged, buf: buf, heap: buf.res[:0]}
	s.stats.Total = len(ix.items)
	if ix.root >= 0 {
		if err := s.visit(ix.root); err != nil {
			return nil, QueryStats{}, err
		}
	}
	buf.res = s.heap[:0]
	out := append([]Result(nil), s.heap...)
	sort.Slice(out, func(a, b int) bool { return worse(out[b], out[a]) })
	annNodesVisited.Add(uint64(s.stats.NodesVisited))
	annExact.Add(uint64(s.stats.Exact))
	annPrunedTree.Add(uint64(s.stats.PrunedTree))
	annPrunedLB.Add(uint64(s.stats.PrunedLB))
	annPrunedEA.Add(uint64(s.stats.Abandoned))
	return out, s.stats, nil
}

// visit processes one node: evaluate the vantage point through the
// cascade, then descend into the children that can still contain a
// result, nearer side first.
func (s *searcher) visit(ni int32) error {
	nd := &s.ix.nodes[ni]
	s.stats.NodesVisited++
	slack := s.ix.slack()
	bound := s.bound()

	// Cutoff for the vantage-point evaluation: a distance beyond it can
	// neither enter the result set (cutoff >= bound) nor force an
	// inside-side descent (cutoff >= radius + bound + slack), so
	// abandoning against it loses nothing.
	cutoff := bound
	if nd.inside >= 0 {
		if c := nd.radius + bound + slack; c > cutoff {
			cutoff = c
		}
	}

	d, known, err := s.refine(nd, cutoff)
	if err != nil {
		return err
	}
	if known {
		s.offer(Result{Index: int(nd.item), Label: s.ix.items[nd.item].Label, Distance: d})
	}

	if nd.inside < 0 && nd.outside < 0 {
		return nil
	}
	if !known {
		// d > cutoff >= radius + bound + slack: no item inside the ball
		// can beat the bound (d(q,x) >= d - radius > bound + slack), while
		// the outside half must still be visited.
		if nd.inside >= 0 {
			s.stats.PrunedTree += int(s.ix.nodes[nd.inside].size)
		}
		if nd.outside >= 0 {
			return s.visit(nd.outside)
		}
		return nil
	}

	// Nearer side first; the refreshed bound after it often prunes the
	// other. Equality against the limit always descends, preserving
	// exhaustive-scan tie-breaking in exact mode.
	if d < nd.radius {
		if err := s.descendInside(nd, d); err != nil {
			return err
		}
		return s.descendOutside(nd, d)
	}
	if err := s.descendOutside(nd, d); err != nil {
		return err
	}
	return s.descendInside(nd, d)
}

// descendInside visits the inside child unless every item within the
// vantage ball is provably beyond the bound: d(q,x) >= d - radius.
func (s *searcher) descendInside(nd *node, d float64) error {
	if nd.inside < 0 {
		return nil
	}
	if d-nd.radius > s.bound()+s.ix.slack() {
		s.stats.PrunedTree += int(s.ix.nodes[nd.inside].size)
		return nil
	}
	return s.visit(nd.inside)
}

// descendOutside visits the outside child unless every item beyond the
// vantage ball is provably beyond the bound: d(q,x) >= radius - d.
func (s *searcher) descendOutside(nd *node, d float64) error {
	if nd.outside < 0 {
		return nil
	}
	if nd.radius-d > s.bound()+s.ix.slack() {
		s.stats.PrunedTree += int(s.ix.nodes[nd.outside].size)
		return nil
	}
	return s.visit(nd.outside)
}

// refine evaluates the exact distance from the query to the node's
// vantage point through the distance cascade, abandoning once the value
// provably exceeds cutoff. known=false means d > cutoff.
func (s *searcher) refine(nd *node, cutoff float64) (float64, bool, error) {
	if s.ix.isDTW {
		if !math.IsInf(cutoff, 1) {
			lb, err := s.ix.dtw.LowerBound(s.q, s.ix.envs[nd.item])
			if err != nil {
				return 0, false, err
			}
			if lb > cutoff {
				s.stats.PrunedLB++
				return 0, false, nil
			}
		}
		d, ok, err := s.ix.dtw.DistanceEarlyAbandon(s.q, s.ix.items[nd.item].FP.M, cutoff, &s.buf.ws)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			s.stats.Abandoned++
			return 0, false, nil
		}
		s.stats.Exact++
		return d, true, nil
	}
	d, err := s.ix.metric.Distance(s.q, s.ix.items[nd.item].FP.M)
	if err != nil {
		return 0, false, err
	}
	s.stats.Exact++
	return d, true, nil
}
