package simeval

import (
	"testing"

	"wpred/internal/distance"
	"wpred/internal/fingerprint"
	"wpred/internal/mat"
)

// fpOf wraps a 1×1 matrix value as a fingerprint so scalar positions act
// as items.
func fpOf(v float64) *fingerprint.Fingerprint {
	return &fingerprint.Fingerprint{Rep: fingerprint.HistFP, M: mat.NewFromRows([][]float64{{v}})}
}

func clusteredItems() []Item {
	// Two tight clusters far apart.
	return []Item{
		{Workload: "A", Class: "x", Run: 0, FP: fpOf(0.0)},
		{Workload: "A", Class: "x", Run: 1, FP: fpOf(0.1)},
		{Workload: "A", Class: "x", Run: 2, FP: fpOf(0.2)},
		{Workload: "B", Class: "y", Run: 0, FP: fpOf(10.0)},
		{Workload: "B", Class: "y", Run: 1, FP: fpOf(10.1)},
		{Workload: "B", Class: "y", Run: 2, FP: fpOf(10.2)},
	}
}

func TestPerfectClusters(t *testing.T) {
	m, err := ComputeMatrix(clusteredItems(), distance.L11{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.OneNNAccuracy(); acc != 1 {
		t.Fatalf("1-NN accuracy = %v, want 1", acc)
	}
	if mp := m.MAP(); mp != 1 {
		t.Fatalf("mAP = %v, want 1", mp)
	}
	if n := m.NDCG(); n != 1 {
		t.Fatalf("NDCG = %v, want 1", n)
	}
}

func TestMixedClusters(t *testing.T) {
	items := clusteredItems()
	// Plant one A item deep inside cluster B.
	items[2].FP = fpOf(10.05)
	m, err := ComputeMatrix(items, distance.L11{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.OneNNAccuracy(); acc >= 1 {
		t.Fatal("a planted outlier must reduce accuracy")
	}
	if mp := m.MAP(); mp >= 1 {
		t.Fatal("a planted outlier must reduce mAP")
	}
}

func TestDistanceMatrixSymmetric(t *testing.T) {
	m, err := ComputeMatrix(clusteredItems(), distance.L11{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.Items)
	for i := 0; i < n; i++ {
		if m.D[i][i] != 0 {
			t.Fatal("diagonal must be zero")
		}
		for j := 0; j < n; j++ {
			if m.D[i][j] != m.D[j][i] {
				t.Fatal("matrix must be symmetric")
			}
		}
	}
}

func TestExpExclusion(t *testing.T) {
	// Two sub-experiments of the same run (identical fingerprints) plus a
	// distant other-workload item. Without exclusion 1-NN is trivially
	// right; with exclusion the nearest allowed item is the wrong
	// workload.
	items := []Item{
		{Workload: "A", Exp: "a/run0", FP: fpOf(0.0)},
		{Workload: "A", Exp: "a/run0", FP: fpOf(0.0)},
		{Workload: "B", Exp: "b/run0", FP: fpOf(1.0)},
		{Workload: "B", Exp: "b/run1", FP: fpOf(1.1)},
	}
	m, err := ComputeMatrix(items, distance.L11{})
	if err != nil {
		t.Fatal(err)
	}
	// A items can only match B items → 0/2; B items match each other →
	// 2/2. Accuracy 0.5.
	if acc := m.OneNNAccuracy(); acc != 0.5 {
		t.Fatalf("accuracy with exclusion = %v, want 0.5", acc)
	}
	// Without Exp set, the sibling match is allowed.
	for i := range items {
		items[i].Exp = ""
	}
	m2, _ := ComputeMatrix(items, distance.L11{})
	if acc := m2.OneNNAccuracy(); acc != 1 {
		t.Fatalf("accuracy without exclusion = %v, want 1", acc)
	}
}

func TestNDCGGradedRelevance(t *testing.T) {
	// Class grading: same-class items must be rewarded when ranked above
	// different-class ones.
	good := []Item{
		{Workload: "A", Class: "oltp", FP: fpOf(0)},
		{Workload: "B", Class: "oltp", FP: fpOf(1)},
		{Workload: "C", Class: "dss", FP: fpOf(5)},
	}
	bad := []Item{
		{Workload: "A", Class: "oltp", FP: fpOf(0)},
		{Workload: "B", Class: "oltp", FP: fpOf(5)},
		{Workload: "C", Class: "dss", FP: fpOf(1)},
	}
	mg, _ := ComputeMatrix(good, distance.L11{})
	mb, _ := ComputeMatrix(bad, distance.L11{})
	if mg.NDCG() <= mb.NDCG() {
		t.Fatalf("class-consistent ranking NDCG (%v) must beat inconsistent (%v)", mg.NDCG(), mb.NDCG())
	}
}

func TestRobustnessReport(t *testing.T) {
	m, err := ComputeMatrix(clusteredItems(), distance.L11{})
	if err != nil {
		t.Fatal(err)
	}
	report := m.RobustnessReport("A")
	if len(report) != 2 {
		t.Fatalf("report entries = %d, want 2 (A and B)", len(report))
	}
	var toA, toB PairStat
	for _, r := range report {
		switch r.Reference {
		case "A":
			toA = r
		case "B":
			toB = r
		}
	}
	if toA.Mean >= toB.Mean {
		t.Fatalf("self-distance (%v) must be below cross-distance (%v)", toA.Mean, toB.Mean)
	}
	if toB.Mean > 1.0001 {
		t.Fatalf("normalized distances must be ≤1, got %v", toB.Mean)
	}
	// 3 queries × 2 other A items and × 3 B items respectively.
	if toA.N != 6 || toB.N != 9 {
		t.Fatalf("counts = %d/%d, want 6/9", toA.N, toB.N)
	}
	if toB.StdErr < 0 {
		t.Fatal("negative standard error")
	}
}

func TestNearestWorkload(t *testing.T) {
	items := append(clusteredItems(), Item{Workload: "Q", FP: fpOf(0.15)})
	m, err := ComputeMatrix(items, distance.L11{})
	if err != nil {
		t.Fatal(err)
	}
	nearest, dists := m.NearestWorkload(len(items) - 1)
	if nearest != "A" {
		t.Fatalf("nearest = %q, want A", nearest)
	}
	if dists["A"] >= dists["B"] {
		t.Fatalf("distances %v inconsistent", dists)
	}
}

func TestSmallMatrices(t *testing.T) {
	single := []Item{{Workload: "A", FP: fpOf(0)}}
	m, err := ComputeMatrix(single, distance.L11{})
	if err != nil {
		t.Fatal(err)
	}
	if m.OneNNAccuracy() != 0 || m.MAP() != 0 || m.NDCG() != 0 {
		t.Fatal("single-item metrics must be 0")
	}
}

func TestComputeMatrixPropagatesErrors(t *testing.T) {
	items := []Item{
		{Workload: "A", FP: fpOf(0)},
		{Workload: "B", FP: &fingerprint.Fingerprint{M: mat.New(2, 2)}},
	}
	if _, err := ComputeMatrix(items, distance.L11{}); err == nil {
		t.Fatal("shape mismatch must propagate")
	}
}

// TestPairAccountingReconciles: across a cold matrix computation and a
// warm (fully cached) recomputation, the wpred_simeval_pairs_total
// counters satisfy exact + cached == total pairs asked about.
func TestPairAccountingReconciles(t *testing.T) {
	items := clusteredItems()
	m := distance.L21{}

	e0, c0 := simPairsExact.Value(), simPairsCached.Value()
	asked := uint64(0)

	cache := NewPairCache()
	cold, err := ComputeMatrixCached(items, m, cache, "recon")
	if err != nil {
		t.Fatal(err)
	}
	asked += uint64(cold.Stats.Total)
	if cold.Stats.Exact+cold.Stats.Cached != cold.Stats.Total || cold.Stats.Cached != 0 {
		t.Fatalf("cold stats inconsistent: %+v", cold.Stats)
	}
	warm, err := ComputeMatrixCached(items, m, cache, "recon")
	if err != nil {
		t.Fatal(err)
	}
	asked += uint64(warm.Stats.Total)
	if warm.Stats.Cached != warm.Stats.Total {
		t.Fatalf("warm recomputation missed the cache: %+v", warm.Stats)
	}

	got := (simPairsExact.Value() - e0) + (simPairsCached.Value() - c0)
	if got != asked {
		t.Fatalf("pair accounting: exact+cached = %d, want %d", got, asked)
	}
}
