package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadExperiments asserts the decoder is total: arbitrary bytes either
// decode into experiments that survive a full write/read round trip, or
// fail with an error — never a panic, and never a lossy success. It also
// holds ReadExperiments to the old re-marshal round trip
// (readExperimentsRoundTrip): the same error, or experiments that encode
// to the same bytes. Every input also runs through the Scanner and
// encoding/json directly (checkScanner), and the fallbackDocs seeds make
// the Scanner decline.
func FuzzReadExperiments(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteExperiments(&buf, []*Experiment{cleanExp(4), cleanExp(0)}); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()

	f.Add(valid)
	f.Add(valid + valid)
	f.Add(valid[:len(valid)/2])                // truncated mid-document
	f.Add(strings.Replace(valid, ":", ",", 5)) // mangled syntax
	f.Add(strings.Replace(valid, "[", "[null,", 2))
	f.Add("")
	f.Add("{}")
	f.Add("[]")
	f.Add("null")
	f.Add(`{"workload":"W","resources":{"bogus":[1,2]}}`)
	f.Add(`{"plans":[{"query":"q","stats":{"bogus":1}}]}`)
	f.Add(`{"throughput":1e999}`)
	f.Add(strings.Repeat("{", 100))
	f.Add(strings.Repeat(`{"workload":"a"}`, 50))
	f.Add(valid + "}") // trailing data: the stream reader rejects it
	for _, doc := range append(fallbackDocs(), acceptedDocs()...) {
		f.Add(doc)
	}

	f.Fuzz(func(t *testing.T, data string) {
		checkScanner(t, []byte(data))
		exps, err := ReadExperiments(strings.NewReader(data))
		want, werr := readExperimentsRoundTrip(strings.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("ReadExperiments error %v, round trip %v", err, werr)
		}
		if err != nil {
			return
		}
		var out, wantOut bytes.Buffer
		if err := WriteExperiments(&out, exps); err != nil {
			t.Fatalf("decoded experiments failed to re-encode: %v", err)
		}
		if err := WriteExperiments(&wantOut, want); err != nil || !bytes.Equal(out.Bytes(), wantOut.Bytes()) {
			t.Fatalf("ReadExperiments and the round trip encode differently (%v)", err)
		}
		again, err := ReadExperiments(&out)
		if err != nil {
			t.Fatalf("re-encoded experiments failed to re-read: %v", err)
		}
		if len(again) != len(exps) {
			t.Fatalf("round trip changed experiment count: %d → %d", len(exps), len(again))
		}
	})
}

// checkScanner fails t unless everything the Scanner accepts in data, as
// a stream and as one document, encoding/json and Experiment also accept,
// with a reflect.DeepEqual result.
func checkScanner(t *testing.T, data []byte) {
	t.Helper()
	if fast, ok := scanExperiments(data); ok {
		slow, err := readExperimentsJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("the scanner accepted a stream encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("the scanner and encoding/json decode the stream differently:\n got %+v\nwant %+v", fast, slow)
		}
	}
	if fast := NewScanner(data).Experiment(); fast != nil {
		var je ExperimentJSON
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&je); err != nil {
			t.Fatalf("the scanner accepted a document encoding/json rejects: %v", err)
		}
		slow, err := je.Experiment()
		if err != nil {
			t.Fatalf("the scanner accepted a document Experiment rejects: %v", err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("the scanner and encoding/json decode the document differently:\n got %+v\nwant %+v", fast, slow)
		}
	}
}

// resourcesJSON renders a resources object whose i-th series (catalog
// order) is series(i).
func resourcesJSON(series func(i int) string) string {
	var members []string
	for i, f := range ResourceFeatures() {
		members = append(members, fmt.Sprintf("%q:%s", f, series(i)))
	}
	return `{` + strings.Join(members, ",") + `}`
}

// fallbackDocs are documents the Scanner must decline, so encoding/json
// decides: some it accepts (escapes, non-ASCII, case-folded keys,
// duplicate keys, nulls, unknown fields), some it rejects (ints written
// as floats, overflow, ragged series, numbers strconv parses but JSON
// does not allow).
func fallbackDocs() []string {
	return []string{
		`{"workload":"W\u00e9","cpus":2}`,
		`{"workload":"Wé","cpus":2}`,
		`{"Workload":"W","CPUS":2}`,
		`{"workload":"W","cpus":2,"cpus":4}`,
		`{"txn_stats":[{"Name":"a","Weight":1}],"txn_stats":[{"Name":"b"}]}`,
		`{"plans":[{"query":"a","stats":{"CompileCPU":1}}],"plans":[{"query":"b"}]}`,
		`{"workload":null,"resources":null,"throughput_series":null,"plans":[{"query":"q","stats":null}],"txn_stats":null}`,
		`{"workload":"W","bogus":1}`,
		`{"cpus":1e1}`,
		`{"cpus":2.0}`,
		`{"cpus":99999999999999999999}`,
		`{"throughput":1e999}`,
		`{"resources":` + resourcesJSON(func(i int) string { return "[" + strings.Repeat("1,", i%3) + "1]" }) + `}`,
		`{"resources":{"CPU_UTILIZATION":[1]}}`,
		`{"throughput":+1}`,
		`{"throughput":.5}`,
		`{"throughput":01}`,
		`{"throughput":1.}`,
		`{"throughput":1e}`,
		`{"throughput":0x1p3}`,
		`{"throughput":Inf}`,
	}
}

// acceptedDocs are documents the Scanner must accept: every float form
// encoding/json writes, negative zero, and empty arrays and objects.
func acceptedDocs() []string {
	return []string{
		`{"workload":"W","cpus":-0,"throughput":1e-7,"mean_latency_ms":1e+21,"throughput_series":[-0,0.5,1E5,2e-300]}`,
		`{"resources":` + resourcesJSON(func(int) string { return "[]" }) + `,"throughput_series":[],"plans":[],"txn_stats":[]}`,
		`{"resources":{},"plans":[{"query":"q","stats":{}},{}],"txn_stats":[{}]}`,
		` { "workload" : "W" , "resources" : ` + resourcesJSON(func(i int) string { return fmt.Sprintf("[ %d , -0 ]", i) }) + " }\n",
	}
}

// TestScannerDeclinesFallbackDocs pins the decline half of the Scanner's
// contract on each fallback document, and that ReadExperiments still
// answers exactly what encoding/json answers for it.
func TestScannerDeclinesFallbackDocs(t *testing.T) {
	for _, doc := range fallbackDocs() {
		if _, ok := scanExperiments([]byte(doc)); ok {
			t.Errorf("the scanner accepted %s", doc)
		}
		got, err := ReadExperiments(strings.NewReader(doc))
		want, werr := readExperimentsJSON(strings.NewReader(doc))
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ReadExperiments answered %v, %v; encoding/json %v, %v", doc, got, err, want, werr)
		}
	}
}

// TestScannerAcceptsWriterForms pins the accept half: the float forms,
// empty containers and whitespace WriteExperiment and json.Marshal emit,
// and a library stream as WriteExperiments writes it, compact or not.
func TestScannerAcceptsWriterForms(t *testing.T) {
	stream := libraryStream(t)
	var compact bytes.Buffer
	for dec := json.NewDecoder(bytes.NewReader(stream)); dec.More(); {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, doc := range append(acceptedDocs(), string(stream), compact.String()) {
		if _, ok := scanExperiments([]byte(doc)); !ok {
			t.Errorf("the scanner declined %.200s", doc)
		}
		checkScanner(t, []byte(doc))
	}
}
