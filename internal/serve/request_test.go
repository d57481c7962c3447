package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
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
// run, and a run whose series are all empty. Hand-written documents add
// what WriteExperiment never emits: explicitly empty series and lists,
// nulls, and negative zero.
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
	docs["negative-zero"] = []byte(`{"workload":"W","cpus":-0,"throughput":-0,"throughput_series":[-0,1e-7,1e+21]}`)
	return docs
}

// TestDecodeMatchesReadExperiment pins the request decode to the library
// reader: every equivalence document, and every fallback target both
// accept, decodes on all three paths, and every target the request
// decoder returns, single or batched, is reflect.DeepEqual to what
// telemetry.ReadExperiment returns for the same document.
func TestDecodeMatchesReadExperiment(t *testing.T) {
	docs := equivalenceDocs(t)
	for i, ft := range fallbackTargets {
		if ft.wire == "" {
			docs[fmt.Sprintf("fallback-%d", i)] = []byte(ft.doc)
		}
	}
	for name, doc := range docs {
		want, err := telemetry.ReadExperiment(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: ReadExperiment: %v", name, err)
		}
		body := mustMarshal(t, predictWire{ToSKU: skuJSON{CPUs: 4}, Target: []json.RawMessage{doc, doc}})
		req, err := decodePredictRequest(body)
		if err != nil {
			t.Fatalf("%s: decodePredictRequest: %v", name, err)
		}
		batch, err := decodeBatchRequest(mustMarshal(t, batchWire{Requests: []json.RawMessage{body}}))
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

// TestFallbackTargetsRejected pins the fallback targets that fail:
// ReadExperiment reports each one's library fault (or accepts it, for an
// unknown field) and both request decoders report its wire fault.
func TestFallbackTargetsRejected(t *testing.T) {
	hasFault := func(err error, fault string) bool {
		if fault == "" {
			return err == nil
		}
		return err != nil && strings.Contains(err.Error(), fault)
	}
	for _, ft := range fallbackTargets {
		if ft.wire == "" {
			continue // TestDecodeMatchesReadExperiment
		}
		if _, err := telemetry.ReadExperiment(strings.NewReader(ft.doc)); !hasFault(err, ft.lib) {
			t.Errorf("%s: ReadExperiment: %v, want %q", ft.doc, err, ft.lib)
		}
		body := `{"to_sku":{"cpus":4},"target":[` + ft.doc + `]}`
		if _, err := decodePredictRequest([]byte(body)); !hasFault(err, ft.wire) {
			t.Errorf("%s: decodePredictRequest: %v, want %q", ft.doc, err, ft.wire)
		}
		if _, err := decodeBatchRequest([]byte(`{"requests":[` + body + `]}`)); !hasFault(err, ft.wire) {
			t.Errorf("%s: decodeBatchRequest: %v, want %q", ft.doc, err, ft.wire)
		}
	}
}

// TestReadBodyAllocatesAsBytesArrive pins readBody's buffer: a body
// larger than maxBodyPrealloc reads whole with or without Content-Length,
// its buffer never passes the declared length or twice what arrived, and
// a client that declares more than it sends makes the server allocate no
// more than maxBodyPrealloc.
func TestReadBodyAllocatesAsBytesArrive(t *testing.T) {
	s := &Server{cfg: Config{MaxBodyBytes: 8 << 20}}
	read := func(body []byte, length int64) []byte {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		r.ContentLength = length
		got, ok := s.readBody(httptest.NewRecorder(), r)
		if !ok {
			t.Fatalf("declared %d bytes, sent %d: readBody failed", length, len(body))
		}
		return got
	}
	big := bytes.Repeat([]byte{' '}, 3*maxBodyPrealloc/2)
	if got := read(big, int64(len(big))); !bytes.Equal(got, big) || cap(got) > len(big)+1 {
		t.Errorf("declared length: read %d of %d bytes into a %d-byte buffer", len(got), len(big), cap(got))
	}
	if got := read(big, -1); !bytes.Equal(got, big) || cap(got) > 2*len(big) {
		t.Errorf("unknown length: read %d of %d bytes into a %d-byte buffer", len(got), len(big), cap(got))
	}
	if got := read(big[:100], s.cfg.MaxBodyBytes); len(got) != 100 || cap(got) > maxBodyPrealloc {
		t.Errorf("declared %d, sent 100: read %d bytes into a %d-byte buffer", s.cfg.MaxBodyBytes, len(got), cap(got))
	}
}

// TestScannerDecodesClientBodies pins that the scanner, not the
// encoding/json fallback, decodes and validates the bodies clients send:
// wpredbench-shaped /v1/predict and /v1/predict/batch requests for the
// five standard workloads on 2 and 4 CPUs, predicted to 8 and 16.
func TestScannerDecodesClientBodies(t *testing.T) {
	singles, batches := wpredbenchBodies(t)
	for i, body := range singles {
		var raw predictRequest
		s := telemetry.NewScanner(body)
		if scanPredict(s, &raw); !s.End() {
			t.Errorf("single body %d: the scanner declined it", i)
		} else if _, err := validatePredictRequest(&raw); err != nil {
			t.Errorf("single body %d: %v", i, err)
		}
	}
	for i, body := range batches {
		var raw batchRequest
		s := telemetry.NewScanner(body)
		if scanBatch(s, &raw); !s.End() {
			t.Errorf("batch body %d: the scanner declined it", i)
		} else if _, err := validateBatchRequest(&raw); err != nil {
			t.Errorf("batch body %d: %v", i, err)
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
