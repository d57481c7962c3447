package ann

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"

	"wpred/internal/distance"
	"wpred/internal/fingerprint"
	"wpred/internal/mat"
	"wpred/internal/telemetry"
)

// testFeatures returns the first c resource features, the column set every
// test fingerprint shares.
func testFeatures(c int) []telemetry.Feature {
	fs := make([]telemetry.Feature, c)
	for i := range fs {
		fs[i] = telemetry.Feature(i)
	}
	return fs
}

// testFP builds a fingerprint over deterministic pseudo-random values.
// kind 0 = uniform, kind 1 = tied (3-point grid, exercises equal-distance
// tie-breaking), kind 2 = clustered around one of 4 centers.
func testFP(rows, cols int, seed uint64, kind int) *fingerprint.Fingerprint {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	m := mat.New(rows, cols)
	center := float64(rng.IntN(4))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch kind {
			case 1:
				m.Set(i, j, float64(rng.IntN(3))*0.5)
			case 2:
				m.Set(i, j, center+0.05*rng.Float64())
			default:
				m.Set(i, j, rng.Float64())
			}
		}
	}
	return &fingerprint.Fingerprint{Rep: fingerprint.HistFP, Features: testFeatures(cols), M: m}
}

// testLibrary builds n fingerprints of identical shape.
func testLibrary(n, rows, cols int, kind int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Label: string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)), FP: testFP(rows, cols, uint64(i)+1, kind)}
	}
	return items
}

// bruteKNN is the exhaustive reference: all distances, ascending
// (distance, index) sort, first k.
func bruteKNN(t *testing.T, items []Item, m distance.Metric, q *fingerprint.Fingerprint, k int) []Result {
	t.Helper()
	all := make([]Result, 0, len(items))
	for i, it := range items {
		d, err := m.Distance(q.M, it.FP.M)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Result{Index: i, Label: it.Label, Distance: d})
	}
	sort.Slice(all, func(a, b int) bool { return worse(all[b], all[a]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Distance != b[i].Distance {
			return false
		}
	}
	return true
}

// exactMetrics are the metric-space distances the index answers exactly.
var exactMetrics = []distance.Metric{
	distance.L11{}, distance.L21{}, distance.Frobenius{}, distance.Canberra{},
}

// TestKNNExactModeMatchesBruteForce is the headline exactness property:
// for every metric-space distance, k-NN through the index equals the
// exhaustive scan — same items, same order, same distances — including on
// heavily tied libraries where tie-breaking decides the ranking.
func TestKNNExactModeMatchesBruteForce(t *testing.T) {
	for _, m := range exactMetrics {
		for kind := 0; kind < 3; kind++ {
			items := testLibrary(120, 10, 3, kind)
			ix, err := Build(items, m, Config{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !ix.Exact() {
				t.Fatalf("%s index should run in exact mode", m.Name())
			}
			buf := &QueryBuffer{}
			for qi := 0; qi < 12; qi++ {
				q := testFP(10, 3, uint64(1000+qi), kind)
				for _, k := range []int{1, 5, 120, 500} {
					got, stats, err := ix.KNN(q, k, buf)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteKNN(t, items, m, q, k)
					if !sameResults(got, want) {
						t.Fatalf("%s kind=%d q=%d k=%d: indexed %v != exact %v", m.Name(), kind, qi, k, got, want)
					}
					if stats.Exact+stats.Pruned() != stats.Total {
						t.Fatalf("stats do not reconcile: %+v", stats)
					}
				}
			}
			// Self-queries must find themselves at distance 0 first.
			for i := 0; i < 120; i += 17 {
				got, _, err := ix.KNN(items[i].FP, 1, buf)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0].Distance != 0 {
					t.Fatalf("%s: self-query %d missed itself: %v", m.Name(), i, got)
				}
			}
		}
	}
}

// TestKNNDTWInfiniteTauMatchesBruteForce pins that τ=+Inf restores
// exhaustive-scan equality even for the non-metric DTW: the cascade then
// only skips pairs that provably cannot make the top k, which is
// loss-free by construction.
func TestKNNDTWInfiniteTauMatchesBruteForce(t *testing.T) {
	for _, m := range []distance.DTW{{Dependent: true, Window: 8}, {Dependent: false, Window: 8}} {
		items := make([]Item, 50)
		for i := range items {
			items[i] = Item{Label: "w", FP: testFP(10+i%7, 3, uint64(i)+1, i%3)}
		}
		ix, err := Build(items, m, Config{Seed: 7, Tau: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Exact() {
			t.Fatal("DTW index must not claim exact mode")
		}
		buf := &QueryBuffer{}
		for qi := 0; qi < 8; qi++ {
			q := testFP(12, 3, uint64(500+qi), qi%3)
			got, stats, err := ix.KNN(q, 5, buf)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteKNN(t, items, m, q, 5)
			if !sameResults(got, want) {
				t.Fatalf("%s q=%d: indexed %v != exact %v", m.Name(), qi, got, want)
			}
			if stats.Exact+stats.Pruned() != stats.Total {
				t.Fatalf("stats do not reconcile: %+v", stats)
			}
		}
	}
}

// TestKNNDTWFiniteTau checks the approximate contract: every returned
// distance is a genuine exact evaluation (recomputable bit-identically),
// results are sorted ascending by (distance, index), and the work
// accounting reconciles.
func TestKNNDTWFiniteTau(t *testing.T) {
	m := distance.DTW{Dependent: true, Window: 8}
	items := make([]Item, 80)
	for i := range items {
		items[i] = Item{Label: "w", FP: testFP(12, 3, uint64(i)+1, 2)}
	}
	ix, err := Build(items, m, Config{Seed: 3, Tau: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	buf := &QueryBuffer{}
	for qi := 0; qi < 10; qi++ {
		q := testFP(12, 3, uint64(900+qi), 2)
		got, stats, err := ix.KNN(q, 5, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("got %d results, want 5", len(got))
		}
		for i, r := range got {
			d, err := m.Distance(q.M, items[r.Index].FP.M)
			if err != nil {
				t.Fatal(err)
			}
			if d != r.Distance {
				t.Fatalf("result %d distance %v != recomputed %v", i, r.Distance, d)
			}
			if i > 0 && worse(got[i-1], got[i]) {
				t.Fatalf("results not sorted: %v", got)
			}
		}
		if stats.Exact+stats.Pruned() != stats.Total {
			t.Fatalf("stats do not reconcile: %+v", stats)
		}
	}
}

// TestRangeExactMode pins ε-range equality with the brute-force filter in
// exact mode, boundary (d == ε) included.
func TestRangeExactMode(t *testing.T) {
	m := distance.L21{}
	items := testLibrary(90, 8, 3, 1) // tied values make exact-boundary hits likely
	ix, err := Build(items, m, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	buf := &QueryBuffer{}
	for qi := 0; qi < 10; qi++ {
		q := testFP(8, 3, uint64(300+qi), 1)
		all := bruteKNN(t, items, m, q, len(items))
		for _, eps := range []float64{0, all[3].Distance, all[20].Distance, math.Inf(1)} {
			got, stats, err := ix.Range(q, eps, buf)
			if err != nil {
				t.Fatal(err)
			}
			var want []Result
			for _, r := range all {
				if r.Distance <= eps {
					want = append(want, r)
				}
			}
			if !sameResults(got, want) {
				t.Fatalf("range(%v): indexed %d results != exact %d", eps, len(got), len(want))
			}
			if stats.Exact+stats.Pruned() != stats.Total {
				t.Fatalf("stats do not reconcile: %+v", stats)
			}
		}
	}
}

// TestBuildDeterminism: same items, metric, and seed produce identical
// trees and identical query answers; a different seed may shape the
// tree differently but exact-mode answers stay equal.
func TestBuildDeterminism(t *testing.T) {
	items := testLibrary(64, 8, 3, 0)
	m := distance.L11{}
	ix1, err := Build(items, m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Build(items, m, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ix1.root != ix2.root || !reflect.DeepEqual(ix1.nodes, ix2.nodes) || !reflect.DeepEqual(ix1.items, ix2.items) {
		t.Fatal("same build inputs produced different trees")
	}
	ix3, err := Build(items, m, Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	q := testFP(8, 3, 777, 0)
	r1, _, err := ix1.KNN(q, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	r3, _, err := ix3.KNN(q, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(r1, r3) {
		t.Fatal("exact-mode answers depend on the build seed")
	}
}

// TestEdgeIndexes covers the degenerate shapes: empty library, single
// item, and k exceeding the library size.
func TestEdgeIndexes(t *testing.T) {
	m := distance.L21{}
	empty, err := Build(nil, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := testFP(6, 2, 1, 0)
	res, stats, err := empty.KNN(q, 3, nil)
	if err != nil || len(res) != 0 || stats.Total != 0 {
		t.Fatalf("empty index: %v %v %+v", res, err, stats)
	}
	one, err := Build(testLibrary(1, 6, 2, 0), m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = one.KNN(q, 5, nil)
	if err != nil || len(res) != 1 {
		t.Fatalf("single-item index: %v %v", res, err)
	}
}

// TestBuildAndQueryErrors covers the argument validation paths.
func TestBuildAndQueryErrors(t *testing.T) {
	if _, err := Build(nil, nil, Config{}); err == nil {
		t.Fatal("nil metric accepted")
	}
	if _, err := Build(nil, distance.L21{}, Config{Tau: -1}); err == nil {
		t.Fatal("negative tau accepted")
	}
	if _, err := Build([]Item{{Label: "x"}}, distance.L21{}, Config{}); err == nil {
		t.Fatal("nil fingerprint accepted")
	}
	mismatched := []Item{
		{Label: "a", FP: testFP(4, 2, 1, 0)},
		{Label: "b", FP: testFP(5, 2, 2, 0)},
	}
	if _, err := Build(mismatched, distance.L21{}, Config{}); !errors.Is(err, distance.ErrShape) {
		t.Fatalf("shape mismatch between items: %v", err)
	}
	ix, err := Build(testLibrary(4, 4, 2, 0), distance.L21{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.KNN(nil, 1, nil); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, _, err := ix.KNN(testFP(4, 2, 1, 0), 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := ix.Range(testFP(4, 2, 1, 0), -0.5, nil); err == nil {
		t.Fatal("negative range radius accepted")
	}
}

// TestConcurrentQueries exercises the one-buffer-per-goroutine contract
// under the race detector: an immutable index must serve concurrent KNN
// and Range calls with identical answers.
func TestConcurrentQueries(t *testing.T) {
	items := testLibrary(100, 8, 3, 2)
	ix, err := Build(items, distance.L21{}, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := testFP(8, 3, 55, 2)
	want, _, err := ix.KNN(q, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := &QueryBuffer{}
			for i := 0; i < 50; i++ {
				got, _, err := ix.KNN(q, 9, buf)
				if err != nil {
					errs <- err
					return
				}
				if !sameResults(got, want) {
					errs <- errors.New("concurrent query diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
