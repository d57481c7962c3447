package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadExperiments asserts the decoder is total: arbitrary bytes either
// decode into experiments that survive a full write/read round trip, or
// fail with an error — never a panic, and never a lossy success. It also
// holds ReadExperiments to the old re-marshal round trip
// (readExperimentsRoundTrip): the same error, or experiments that encode
// to the same bytes.
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

	f.Fuzz(func(t *testing.T, data string) {
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
