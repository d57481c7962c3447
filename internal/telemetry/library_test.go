package telemetry_test

import (
	"bytes"
	"sync"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// TestScannerDecodesLibraryStreams pins that the Scanner, not the
// encoding/json fallback, reads what WriteExperiments writes for every
// simulated workload, PW's plan-only runs included.
func TestScannerDecodesLibraryStreams(t *testing.T) {
	for _, name := range bench.Names() {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		skus := []telemetry.SKU{{CPUs: 2, MemoryGB: 16}, {CPUs: 4, MemoryGB: 32}}
		exps := bench.GenerateSuite([]*simdb.Workload{w}, skus, []int{8}, 1, telemetry.NewSource(42))
		var buf bytes.Buffer
		if err := telemetry.WriteExperiments(&buf, exps); err != nil {
			t.Fatal(err)
		}
		if got, ok := telemetry.ScanExperiments(buf.Bytes()); !ok || len(got) != len(exps) {
			t.Errorf("%s: the scanner declined a WriteExperiments stream (%d of %d read)", name, len(got), len(exps))
		}
	}
}

var (
	libraryOnce   sync.Once
	libraryStream []byte
)

// BenchmarkReadExperiments times reading wpredd's default reference
// library as a -telemetry file holds it: the five standard workloads on
// 2/4/8/16 CPUs, 8 terminals, three runs each, seed 42, as
// WriteExperiments writes them (about 9.7 MB).
func BenchmarkReadExperiments(b *testing.B) {
	libraryOnce.Do(func() {
		var skus []telemetry.SKU
		for _, c := range []int{2, 4, 8, 16} {
			skus = append(skus, telemetry.SKU{CPUs: c, MemoryGB: 8 * c})
		}
		exps := bench.GenerateSuite(bench.Standard(), skus, []int{8}, 3, telemetry.NewSource(42))
		var buf bytes.Buffer
		if err := telemetry.WriteExperiments(&buf, exps); err != nil {
			b.Fatal(err)
		}
		libraryStream = buf.Bytes()
	})
	b.SetBytes(int64(len(libraryStream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := telemetry.ReadExperiments(bytes.NewReader(libraryStream)); err != nil {
			b.Fatal(err)
		}
	}
}
