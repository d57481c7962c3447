package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
)

// readExperimentsRoundTrip is ReadExperiments as it was before documents
// were converted directly: each decoded document is re-marshalled and read
// again through ReadExperiment. It is the oracle the direct path must
// match.
func readExperimentsRoundTrip(r io.Reader) ([]*Experiment, error) {
	dec := json.NewDecoder(r)
	var out []*Experiment
	for {
		var je ExperimentJSON
		if err := dec.Decode(&je); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: decode experiment %d: %w", len(out), err)
		}
		buf, err := json.Marshal(je)
		if err != nil {
			return nil, err
		}
		e, err := ReadExperiment(bytes.NewReader(buf))
		if err != nil {
			return nil, fmt.Errorf("telemetry: experiment %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// libraryStream renders a reference library the way wlgen and wpredd's
// -telemetry files hold one: full runs with and without transaction
// stats, a plan-only run, a run with empty series, and values that stress
// float formatting.
func libraryStream(t *testing.T) []byte {
	t.Helper()
	full := cleanExp(30)
	full.TxnStats = []TxnMetrics{{Name: "NewOrder", Weight: 0.45, MeanLatMS: 2.5, Throughput: 100}, {Name: "Payment", Weight: 0.55}}
	other := makeExperiment(30, 5)
	other.Workload, other.Run, other.DataGroup = "TPC-C", 2, 1
	planOnly := makeExperiment(0, 3)
	planOnly.Workload = "PW"
	empty := cleanExp(0)
	tiny := cleanExp(24)
	tiny.Throughput, tiny.MeanLatMS = math.SmallestNonzeroFloat64, math.MaxFloat64
	tiny.Resources.Samples[2][3] = math.Copysign(0, -1)
	tiny.Resources.Samples[4][5] = 1.0 / 3
	var buf bytes.Buffer
	if err := WriteExperiments(&buf, []*Experiment{full, other, planOnly, empty, tiny}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadExperimentsMatchesRoundTrip checks that converting each decoded
// document directly returns exactly what the old re-marshal round trip
// returned on a library stream.
func TestReadExperimentsMatchesRoundTrip(t *testing.T) {
	stream := libraryStream(t)
	got, err := ReadExperiments(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	want, err := readExperimentsRoundTrip(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadExperiments differs from the round trip:\n got %+v\nwant %+v", got, want)
	}
}
