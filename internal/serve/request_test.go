package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wpred/internal/bench"
	"wpred/internal/simdb"
	"wpred/internal/telemetry"
)

// equivalenceDocs returns target documents as WriteExperiment renders
// them: a full simulated run (resources, plans, throughput series and
// transaction stats), the same run without transaction stats, a plan-only
// run, and a run whose series are all empty. Two hand-written documents
// add what WriteExperiment never emits: explicitly empty series and lists.
func equivalenceDocs(t *testing.T) map[string][]byte {
	t.Helper()
	ycsb, err := bench.ByName("YCSB")
	if err != nil {
		t.Fatal(err)
	}
	full := simdb.Simulate(ycsb, simdb.Config{SKU: telemetry.SKU{CPUs: 2, MemoryGB: 16}, Terminals: 4, Ticks: 40}, telemetry.NewSource(7))
	if len(full.TxnStats) == 0 || len(full.Plans) == 0 || full.Resources.Len() == 0 {
		t.Fatal("simulated run lacks transaction stats, plans or resources")
	}
	noTxn := full.Clone()
	noTxn.TxnStats = nil
	planOnly := full.Clone()
	planOnly.Resources = telemetry.ResourceSeries{}
	planOnly.ThroughputSeries = nil
	empty := full.Clone()
	for f := range empty.Resources.Samples {
		empty.Resources.Samples[f] = []float64{}
	}
	empty.ThroughputSeries = []float64{}

	docs := map[string][]byte{}
	for name, e := range map[string]*telemetry.Experiment{
		"full": full, "no-txn-stats": noTxn, "plan-only": planOnly, "empty-series": empty,
	} {
		var buf bytes.Buffer
		if err := telemetry.WriteExperiment(&buf, e); err != nil {
			t.Fatal(err)
		}
		docs[name] = buf.Bytes()
	}
	var series []string
	for _, f := range telemetry.ResourceFeatures() {
		series = append(series, fmt.Sprintf("%q:[]", f))
	}
	docs["explicit-empty"] = []byte(`{"workload":"W","cpus":2,"resources":{` + strings.Join(series, ",") +
		`},"throughput_series":[],"plans":[],"txn_stats":[]}`)
	docs["nulls"] = []byte(`{"workload":"W","resources":null,"throughput_series":null,"plans":[{"query":"q","stats":null}],"txn_stats":null}`)
	return docs
}

// TestDecodeMatchesReadExperiment pins the one-pass request decode to the
// library reader: every target the request decoder returns, single or
// batched, is reflect.DeepEqual to what telemetry.ReadExperiment returns
// for the same document.
func TestDecodeMatchesReadExperiment(t *testing.T) {
	for name, doc := range equivalenceDocs(t) {
		want, err := telemetry.ReadExperiment(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: ReadExperiment: %v", name, err)
		}
		body := mustMarshal(t, predictWire{ToSKU: skuJSON{CPUs: 4}, Target: []json.RawMessage{doc, doc}})
		req, err := decodePredictRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: decodePredictRequest: %v", name, err)
		}
		batch, err := decodeBatchRequest(bytes.NewReader(mustMarshal(t, batchWire{Requests: []json.RawMessage{body}})))
		if err != nil {
			t.Fatalf("%s: decodeBatchRequest: %v", name, err)
		}
		for i, got := range append(req.Target, batch[0].Target...) {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: decoded target %d differs from ReadExperiment's:\n got %+v\nwant %+v", name, i, got, want)
			}
		}
	}
}

// TestUnknownFieldInTargetRejected pins the strict target documents: an
// unknown field inside a target (or deeper, inside its transaction stats)
// is a 400 naming the field, single or batched. The library reader still
// ignores unknown fields in the same document.
func TestUnknownFieldInTargetRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, target := range []string{
		`{"workload":"W","cpus":2,"bogus":1}`,
		`{"workload":"W","cpus":2,"txn_stats":[{"Name":"q","bogus":1}]}`,
	} {
		if _, err := telemetry.ReadExperiment(strings.NewReader(target)); err != nil {
			t.Fatalf("ReadExperiment rejected an unknown field: %v", err)
		}
		body := `{"to_sku":{"cpus":4},"target":[` + target + `]}`
		for path, b := range map[string]string{
			"/v1/predict":       body,
			"/v1/predict/batch": `{"requests":[` + body + `]}`,
		} {
			code, out := serveLocal(s, path, []byte(b))
			if code != http.StatusBadRequest || !strings.Contains(string(out), `unknown field \"bogus\"`) {
				t.Errorf("%s with %s: %d %s, want 400 naming the field", path, target, code, out)
			}
		}
	}
}

// TestInvalidRequestsGetOneError checks that identical invalid requests get
// byte-identical 400 bodies. Each document holds several faults of one
// kind (unknown resource names, ragged resource series, unknown plan
// statistics), and which one the validator reports must not depend on map
// iteration order.
func TestInvalidRequestsGetOneError(t *testing.T) {
	s := newTestServer(t, Config{})
	var ragged []string
	for i, f := range telemetry.ResourceFeatures() {
		ragged = append(ragged, fmt.Sprintf("%q:%s", f, "["+strings.Repeat("1,", i%3)+"1]"))
	}
	for _, target := range []string{
		`{"resources":{"bogusA":[1],"bogusB":[1],"bogusC":[1]}}`,
		`{"resources":{"CPU_UTILIZATION":[1,2,3],"CPU_EFFECTIVE":[1,2],"MEM_UTILIZATION":[1]}}`,
		`{"resources":{` + strings.Join(ragged, ",") + `}}`,
		`{"plans":[{"query":"q","stats":{"bogusA":1,"bogusB":1,"bogusC":1}}]}`,
	} {
		body := []byte(`{"to_sku":{"cpus":4},"target":[` + target + `]}`)
		seen := map[string]bool{}
		for range 100 {
			code, out := serveLocal(s, "/v1/predict", body)
			if code != http.StatusBadRequest {
				t.Fatalf("%s: status %d: %s", target, code, out)
			}
			seen[string(out)] = true
		}
		if len(seen) != 1 {
			t.Errorf("%s: 100 identical requests got %d distinct bodies: %q", target, len(seen), slices.Sorted(maps.Keys(seen)))
		}
	}
}
