package wpred

import (
	"testing"

	"wpred/internal/distance"
	"wpred/internal/experiments"
	"wpred/internal/fingerprint"
	"wpred/internal/mat"
	"wpred/internal/ml/linmodel"
	"wpred/internal/ml/svm"
	"wpred/internal/scalemodel"
	"wpred/internal/telemetry"
)

// The experiment benchmarks regenerate each table/figure of the paper in
// quick mode (reduced run lengths; identical shapes). One benchmark per
// table AND figure, as the experiment index in DESIGN.md specifies.

func benchRunner(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.RunnerByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(42)
		s.Quick = true
		if _, err := r.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1QueryVsWorkload(b *testing.B)  { benchRunner(b, "figure1") }
func BenchmarkFigure3LassoPath(b *testing.B)        { benchRunner(b, "figure3") }
func BenchmarkTable3FeatureSelection(b *testing.B)  { benchRunner(b, "table3") }
func BenchmarkFigure4AccuracyPatterns(b *testing.B) { benchRunner(b, "figure4") }
func BenchmarkTable4Similarity(b *testing.B)        { benchRunner(b, "table4") }
func BenchmarkTable5RFESelections(b *testing.B)     { benchRunner(b, "table5") }
func BenchmarkFigure5TwitterRobustness(b *testing.B) {
	benchRunner(b, "figure5")
}
func BenchmarkFigure6TPCCRobustness(b *testing.B)   { benchRunner(b, "figure6") }
func BenchmarkFigure7PWSimilarity(b *testing.B)     { benchRunner(b, "figure7") }
func BenchmarkFigure8SingleVsPairLMM(b *testing.B)  { benchRunner(b, "figure8") }
func BenchmarkFigure9SingleVsPairSVM(b *testing.B)  { benchRunner(b, "figure9") }
func BenchmarkTable6ModelStrategies(b *testing.B)   { benchRunner(b, "table6") }
func BenchmarkFigure10YCSBSimilarity(b *testing.B)  { benchRunner(b, "figure10") }
func BenchmarkFigure11EndToEnd(b *testing.B)        { benchRunner(b, "figure11") }
func BenchmarkFigure12Roofline(b *testing.B)        { benchRunner(b, "figure12") }
func BenchmarkAppendixARepresentation(b *testing.B) { benchRunner(b, "appendixA") }
func BenchmarkAblations(b *testing.B)               { benchRunner(b, "ablations") }

// Component micro-benchmarks: the hot paths of the pipeline.

func benchExperiments(b *testing.B, n int) []*Experiment {
	b.Helper()
	src := NewSource(42)
	var refs []*Workload
	for _, w := range ReferenceWorkloads() {
		refs = append(refs, w)
		if len(refs) == n {
			break
		}
	}
	return GenerateSuite(refs, []SKU{{CPUs: 8, MemoryGB: 64}}, []int{8}, 3, src)
}

func BenchmarkSimulateExperiment(b *testing.B) {
	w, err := WorkloadByName("TPC-C")
	if err != nil {
		b.Fatal(err)
	}
	src := NewSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(w, SimConfig{SKU: SKU{CPUs: 8, MemoryGB: 64}, Terminals: 8, Run: i % 3}, src)
	}
}

func BenchmarkHistFPBuild(b *testing.B) {
	exps := benchExperiments(b, 3)
	builder := &fingerprint.Builder{Rep: fingerprint.HistFP}
	if err := builder.Fit(exps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(exps[i%len(exps)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseFPBuild(b *testing.B) {
	exps := benchExperiments(b, 2)
	builder := &fingerprint.Builder{Rep: fingerprint.PhaseFP, Features: telemetry.ResourceFeatures()}
	if err := builder.Fit(exps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(exps[i%len(exps)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWDistance(b *testing.B) {
	exps := benchExperiments(b, 2)
	builder := &fingerprint.Builder{Rep: fingerprint.MTS, Features: telemetry.ResourceFeatures()}
	if err := builder.Fit(exps); err != nil {
		b.Fatal(err)
	}
	fa, _ := builder.Build(exps[0])
	fb, _ := builder.Build(exps[1])
	m := distance.DTW{Dependent: true, Window: 40}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Distance(fa.M, fb.M); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkL21Distance(b *testing.B) {
	exps := benchExperiments(b, 2)
	builder := &fingerprint.Builder{Rep: fingerprint.HistFP}
	if err := builder.Fit(exps); err != nil {
		b.Fatal(err)
	}
	fa, _ := builder.Build(exps[0])
	fb, _ := builder.Build(exps[1])
	m := distance.L21{}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Distance(fa.M, fb.M); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRegressionData(n, c int) (*mat.Dense, []float64) {
	src := telemetry.NewSource(3)
	x := mat.New(n, c)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			x.Set(i, j, src.NormFloat64())
		}
		y[i] = x.At(i, 0)*3 + src.NormFloat64()*0.1
	}
	return x, y
}

func BenchmarkLassoFit(b *testing.B) {
	x, y := benchRegressionData(300, 29)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &linmodel.Lasso{Alpha: 0.01}
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVRFit(b *testing.B) {
	x, y := benchRegressionData(30, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &svm.SVR{}
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairwiseModelFit(b *testing.B) {
	w, err := WorkloadByName("TPC-C")
	if err != nil {
		b.Fatal(err)
	}
	ds := scalemodel.Build(w, scalemodel.BuildConfig{Terminals: 8, Subsamples: 10, Ticks: 120}, NewSource(4))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scalemodel.FitPair(scalemodel.SVM, ds, 0, 2, nil, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelinePredict(b *testing.B) {
	src := NewSource(5)
	small := SKU{CPUs: 2, MemoryGB: 16}
	large := SKU{CPUs: 8, MemoryGB: 64}
	var refs []*Workload
	for _, w := range ReferenceWorkloads() {
		if w.Name != "YCSB" && w.Name != "TPC-DS" {
			refs = append(refs, w)
		}
	}
	refExps := GenerateSuite(refs, []SKU{small, large}, []int{8}, 3, src)
	p, err := TrainPipeline(PipelineConfig{Seed: 5, Subsamples: 5}, refExps)
	if err != nil {
		b.Fatal(err)
	}
	ycsb, _ := WorkloadByName("YCSB")
	target := GenerateSuite([]*Workload{ycsb}, []SKU{small}, []int{8}, 3, src)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.PredictWithReport(target, large); err != nil {
			b.Fatal(err)
		}
	}
}
