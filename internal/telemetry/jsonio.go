package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// ExperimentJSON is the stable on-disk and wire representation of an
// Experiment. Feature values are keyed by their Table 2 names, so files
// remain readable if the catalog order ever changes. Decoders that hold
// experiments inside a larger document (wpredd's request bodies) decode
// into it directly and convert with Experiment, in the same pass.
type ExperimentJSON struct {
	Workload   string  `json:"workload"`
	CPUs       int     `json:"cpus"`
	MemoryGB   int     `json:"memory_gb"`
	Terminals  int     `json:"terminals"`
	Run        int     `json:"run"`
	DataGroup  int     `json:"data_group"`
	Throughput float64 `json:"throughput"`
	MeanLatMS  float64 `json:"mean_latency_ms"`

	Resources        map[string][]float64 `json:"resources,omitempty"`
	ThroughputSeries []float64            `json:"throughput_series,omitempty"`
	Plans            []PlanJSON           `json:"plans,omitempty"`
	TxnStats         []TxnMetrics         `json:"txn_stats,omitempty"`
}

// PlanJSON is the representation of one PlanObservation.
type PlanJSON struct {
	Query string             `json:"query"`
	Stats map[string]float64 `json:"stats"`
}

// WriteExperiment serializes one experiment as JSON.
func WriteExperiment(w io.Writer, e *Experiment) error {
	je := ExperimentJSON{
		Workload:         e.Workload,
		CPUs:             e.SKU.CPUs,
		MemoryGB:         e.SKU.MemoryGB,
		Terminals:        e.Terminals,
		Run:              e.Run,
		DataGroup:        e.DataGroup,
		Throughput:       e.Throughput,
		MeanLatMS:        e.MeanLatMS,
		ThroughputSeries: e.ThroughputSeries,
		TxnStats:         e.TxnStats,
	}
	if e.Resources.Len() > 0 {
		je.Resources = map[string][]float64{}
		for _, f := range ResourceFeatures() {
			je.Resources[f.String()] = e.Resources.Feature(f)
		}
	}
	for _, p := range e.Plans {
		jp := PlanJSON{Query: p.Query, Stats: map[string]float64{}}
		for _, f := range PlanFeatures() {
			jp.Stats[f.String()] = p.Value(f)
		}
		je.Plans = append(je.Plans, jp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(je)
}

// Experiment converts a decoded document into an Experiment and validates
// it. Unknown feature names are rejected rather than silently dropped, so
// telemetry produced by a newer catalog fails loudly, and a document with
// resource series must carry all seven with one tick count. The checks run
// in a fixed order (unknown names alphabetically, then the series count,
// then tick counts in catalog order), so a document with several faults
// always reports the same one. The Experiment shares je's slices.
func (je *ExperimentJSON) Experiment() (*Experiment, error) {
	e := &Experiment{
		Workload:         je.Workload,
		SKU:              SKU{CPUs: je.CPUs, MemoryGB: je.MemoryGB},
		Terminals:        je.Terminals,
		Run:              je.Run,
		DataGroup:        je.DataGroup,
		Throughput:       je.Throughput,
		MeanLatMS:        je.MeanLatMS,
		ThroughputSeries: je.ThroughputSeries,
		TxnStats:         je.TxnStats,
	}
	var unknown []string
	for name, series := range je.Resources {
		if f, ok := FeatureByName(name); ok && f.Kind() == Resource {
			e.Resources.Samples[f] = series
		} else {
			unknown = append(unknown, name)
		}
	}
	if err := unknownFeature(Resource, unknown); err != nil {
		return nil, err
	}
	if n := len(je.Resources); n > 0 && n != NumResourceFeatures {
		return nil, fmt.Errorf("telemetry: experiment has %d resource series, want %d", n, NumResourceFeatures)
	}
	ticks := e.Resources.Len()
	for f, series := range e.Resources.Samples {
		if len(series) != ticks {
			return nil, fmt.Errorf("telemetry: resource feature %q has %d ticks, want %d", Feature(f), len(series), ticks)
		}
	}
	for _, jp := range je.Plans {
		var p PlanObservation
		p.Query = jp.Query
		for name, v := range jp.Stats {
			if f, ok := FeatureByName(name); ok && f.Kind() == Plan {
				p.Stats[int(f)-NumResourceFeatures] = v
			} else {
				unknown = append(unknown, name)
			}
		}
		if err := unknownFeature(Plan, unknown); err != nil {
			return nil, err
		}
		e.Plans = append(e.Plans, p)
	}
	return e, nil
}

// unknownFeature reports the alphabetically first of the names a document
// used that are not catalog features of kind k, or nil when there are
// none. Picking by name, not by map order, keeps the report the same for
// identical documents.
func unknownFeature(k Kind, names []string) error {
	if len(names) == 0 {
		return nil
	}
	return fmt.Errorf("telemetry: unknown %s feature %q", k, slices.Min(names))
}

// ReadExperiment parses one experiment from JSON and ignores what follows
// it; see (*ExperimentJSON).Experiment for what it validates. It reads r
// to EOF, then the Scanner decodes the first document; when the Scanner
// declines, encoding/json decodes the same bytes and decides.
func ReadExperiment(r io.Reader) (*Experiment, error) {
	data, err := readAll(r)
	if err == nil {
		if e := NewScanner(data).Experiment(); e != nil {
			return e, nil
		}
	}
	var je ExperimentJSON
	if err := json.NewDecoder(replay(data, err)).Decode(&je); err != nil {
		return nil, fmt.Errorf("telemetry: decode experiment: %w", err)
	}
	return je.Experiment()
}

// readAll reads r to EOF into one buffer, sized up front when r can tell
// its length (an in-memory reader by Len, a file by Stat, as os.ReadFile
// does), so a multi-megabyte library is not copied through io.ReadAll's
// growth steps.
func readAll(r io.Reader) ([]byte, error) {
	var size int
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case *os.File:
		if fi, err := v.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() {
			size = int(fi.Size())
		}
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead) // MinRead: room for the read that sees EOF
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// replay returns a reader that yields data and then err, or io.EOF when
// err is nil: what readAll saw, so the encoding/json fallback decodes
// exactly what it would have decoded reading the original reader.
func replay(data []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(data)
	}
	return io.MultiReader(bytes.NewReader(data), errReader{err})
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// WriteExperiments serializes a list of experiments as a JSON array
// stream (one document per experiment).
func WriteExperiments(w io.Writer, exps []*Experiment) error {
	for _, e := range exps {
		if err := WriteExperiment(w, e); err != nil {
			return err
		}
	}
	return nil
}

// ReadExperiments parses a stream of experiment documents until EOF,
// validating each like ReadExperiment. It reads the stream into memory
// once and decodes it with the Scanner; when the Scanner declines any
// document, readExperimentsJSON decodes the whole stream again, so errors
// and their document indices are encoding/json's.
func ReadExperiments(r io.Reader) ([]*Experiment, error) {
	data, err := readAll(r)
	if err == nil {
		if exps, ok := scanExperiments(data); ok {
			return exps, nil
		}
	}
	return readExperimentsJSON(replay(data, err))
}

// scanExperiments decodes a stream of experiment documents with the
// Scanner; ok is false when it declines.
func scanExperiments(data []byte) (exps []*Experiment, ok bool) {
	s := NewScanner(data)
	for s.more() {
		exps = append(exps, s.Experiment())
	}
	return exps, s.End()
}

// readExperimentsJSON is ReadExperiments on encoding/json alone: the
// fallback, and the reference the Scanner is tested against.
func readExperimentsJSON(r io.Reader) ([]*Experiment, error) {
	dec := json.NewDecoder(r)
	var out []*Experiment
	for {
		var je ExperimentJSON
		if err := dec.Decode(&je); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: decode experiment %d: %w", len(out), err)
		}
		e, err := je.Experiment()
		if err != nil {
			return nil, fmt.Errorf("telemetry: experiment %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}
