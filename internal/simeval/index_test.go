package simeval

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"wpred/internal/ann"
	"wpred/internal/distance"
	"wpred/internal/fingerprint"
	"wpred/internal/mat"
	"wpred/internal/telemetry"
)

// The pipeline's indexed similarity path (core's refContext) ranks
// workloads from a VP-tree's k nearest references instead of a full
// matrix row. These tests pin the contract it stands on between the two
// packages: in exact mode the index's distances are the matrix's
// distances, bit for bit, so Matrix.NearestWorkload decides the same over
// either.

// indexItem builds one reference item: a fingerprint clustered around a
// per-workload center so similarity structure is real.
func indexItem(workload string, center float64, seed uint64) Item {
	rng := rand.New(rand.NewPCG(seed, seed^0x51))
	m := mat.New(10, 3)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, center+0.1*rng.Float64())
		}
	}
	return Item{
		Workload: workload,
		FP: &fingerprint.Fingerprint{
			Rep:      fingerprint.HistFP,
			Features: []telemetry.Feature{0, 1, 2},
			M:        m,
		},
	}
}

func indexLibrary() []Item {
	workloads := []struct {
		name   string
		center float64
	}{{"tpcc", 0}, {"tpch", 1}, {"web", 2}, {"epinions", 3}}
	var items []Item
	seed := uint64(1)
	for _, w := range workloads {
		for r := 0; r < 6; r++ {
			items = append(items, indexItem(w.name, w.center, seed))
			seed++
		}
	}
	return items
}

// exactMetrics are the metric-space distances the index answers exactly.
var exactMetrics = []distance.Metric{distance.L11{}, distance.L21{}, distance.Frobenius{}, distance.Canberra{}}

func buildIndex(t *testing.T, items []Item, m distance.Metric) *ann.Index {
	t.Helper()
	annItems := make([]ann.Item, len(items))
	for i, it := range items {
		annItems[i] = ann.Item{Label: it.Workload, FP: it.FP}
	}
	ix, err := ann.Build(annItems, m, ann.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestNearestWorkloadIndexedMatchesExhaustive: with k covering the
// library, each item's lookup returns every item once with its matrix
// distance to the bit, so Matrix.NearestWorkload over the indexed rows
// names the same workload with the same per-workload means as over the
// exhaustive matrix — own-workload exclusion included.
func TestNearestWorkloadIndexedMatchesExhaustive(t *testing.T) {
	items := indexLibrary()
	for _, m := range exactMetrics {
		mx, err := ComputeMatrix(items, m)
		if err != nil {
			t.Fatal(err)
		}
		ix := buildIndex(t, items, m)
		indexed := &Matrix{Items: items, D: make([][]float64, len(items))}
		buf := &ann.QueryBuffer{}
		for q := range items {
			res, stats, err := ix.KNN(items[q].FP, len(items), buf)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Exact+stats.Pruned() != stats.Total {
				t.Fatalf("%s q=%d: stats do not reconcile: %+v", m.Name(), q, stats)
			}
			row := make([]float64, len(items))
			seen := make([]bool, len(items))
			for _, r := range res {
				if seen[r.Index] {
					t.Fatalf("%s q=%d: item %d returned twice", m.Name(), q, r.Index)
				}
				seen[r.Index] = true
				row[r.Index] = r.Distance
			}
			if len(res) != len(items) {
				t.Fatalf("%s q=%d: %d results, want %d", m.Name(), q, len(res), len(items))
			}
			indexed.D[q] = row
		}
		for q := range items {
			for j := range items {
				if math.Float64bits(indexed.D[q][j]) != math.Float64bits(mx.D[q][j]) {
					t.Fatalf("%s (%d,%d): indexed %v, exhaustive %v", m.Name(), q, j, indexed.D[q][j], mx.D[q][j])
				}
			}
			wantW, wantMeans := mx.NearestWorkload(q)
			gotW, gotMeans := indexed.NearestWorkload(q)
			if gotW != wantW {
				t.Fatalf("%s q=%d: indexed winner %q, exhaustive %q", m.Name(), q, gotW, wantW)
			}
			if len(gotMeans) != len(wantMeans) {
				t.Fatalf("%s q=%d: means differ: %v vs %v", m.Name(), q, gotMeans, wantMeans)
			}
			for w, want := range wantMeans {
				if got := gotMeans[w]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s q=%d workload %s: mean %v, want %v", m.Name(), q, w, got, want)
				}
			}
		}
	}
}

// TestNearestWorkloadIndexedSmallK: a bounded lookup returns exactly the
// head of the exhaustive row — the k smallest matrix distances, in
// (distance, index) order, to the bit — so a small IndexK ranks the
// workloads of the truly nearest references. A non-positive k is an error.
func TestNearestWorkloadIndexedSmallK(t *testing.T) {
	items := indexLibrary()
	const k = 3
	for _, m := range exactMetrics {
		mx, err := ComputeMatrix(items, m)
		if err != nil {
			t.Fatal(err)
		}
		ix := buildIndex(t, items, m)
		buf := &ann.QueryBuffer{}
		for q := range items {
			res, _, err := ix.KNN(items[q].FP, k, buf)
			if err != nil {
				t.Fatal(err)
			}
			order := make([]int, len(items))
			for j := range order {
				order[j] = j
			}
			sort.SliceStable(order, func(a, b int) bool { return mx.D[q][order[a]] < mx.D[q][order[b]] })
			if len(res) != k {
				t.Fatalf("%s q=%d: %d results, want %d", m.Name(), q, len(res), k)
			}
			for i, r := range res {
				want := order[i]
				if r.Index != want || r.Label != items[want].Workload ||
					math.Float64bits(r.Distance) != math.Float64bits(mx.D[q][want]) {
					t.Fatalf("%s q=%d rank %d: got %+v, want item %d at %v", m.Name(), q, i, r, want, mx.D[q][want])
				}
			}
		}
		for _, bad := range []int{0, -1} {
			if _, _, err := ix.KNN(items[0].FP, bad, buf); err == nil {
				t.Fatalf("%s: k=%d accepted", m.Name(), bad)
			}
		}
	}
}
