package telemetry

import "strconv"

// Scanner decodes JSON in the experiment format in one pass over a byte
// slice, with no reflection and no intermediate maps: resource series go
// straight to their Samples slot and plan statistics to their Stats slot.
// It handles the shape WriteExperiment and json.Marshal emit (compact or
// indented), and declines everything else:
//
//   - strings with escapes, control bytes or bytes >= 0x80;
//   - keys that are unknown, repeated, or match a field only up to case;
//   - null, and a value of the wrong kind;
//   - numbers outside JSON's grammar, non-integers or out-of-range values
//     in int fields, and floats that overflow;
//   - every fault (*ExperimentJSON).Experiment reports.
//
// After a decline every read returns a zero value and End reports false;
// the caller then decodes the same bytes with encoding/json, which
// decides. So whatever the Scanner accepts is exactly what encoding/json
// and Experiment return for the same bytes, and every error comes from
// them. Decoded strings and slices are copies: nothing aliases the input.
type Scanner struct {
	data   []byte
	pos    int
	failed bool
	series []float64 // scratch for one series, reused across arrays
}

// NewScanner returns a Scanner over data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// End reports whether every read succeeded and only whitespace follows.
func (s *Scanner) End() bool {
	s.skipSpace()
	return !s.failed && s.pos == len(s.data)
}

// more reports whether every read succeeded and a value follows.
func (s *Scanner) more() bool {
	s.skipSpace()
	return !s.failed && s.pos < len(s.data)
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume reads byte c after optional whitespace, or declines.
func (s *Scanner) consume(c byte) bool {
	s.skipSpace()
	if s.failed || s.pos == len(s.data) || s.data[s.pos] != c {
		s.failed = true
		return false
	}
	s.pos++
	return true
}

// next reads byte c after optional whitespace when it is the next byte,
// and reports whether it was.
func (s *Scanner) next(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object reads an object, calling member once per key in document order;
// member reads the value and returns false to decline. The key aliases
// the input and must not be kept.
func (s *Scanner) object(member func(key []byte) bool) {
	if !s.consume('{') || s.next('}') {
		return
	}
	for {
		key := s.str()
		if !s.consume(':') || !member(key) || s.failed {
			s.failed = true
			return
		}
		if !s.next(',') {
			s.consume('}')
			return
		}
	}
}

// Object reads an object whose keys are among names (at most 64),
// calling member with each key's index in names, in document order;
// member must read the value. An unknown or repeated key declines.
func (s *Scanner) Object(names []string, member func(i int)) {
	var seen uint64
	s.object(func(key []byte) bool {
		for i, name := range names {
			if string(key) == name {
				if seen&(1<<i) != 0 {
					return false
				}
				seen |= 1 << i
				member(i)
				return true
			}
		}
		return false
	})
}

// features reads an object keyed by the names of catalog features of
// kind k, calling member once per feature; member must read the value.
func (s *Scanner) features(k Kind, member func(f Feature)) {
	var seen uint64
	s.object(func(key []byte) bool {
		f, ok := featuresByName[string(key)]
		if !ok || f.Kind() != k || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		member(f)
		return true
	})
}

// Array reads an array, calling elem once per element to read it.
func (s *Scanner) Array(elem func()) {
	if !s.consume('[') || s.next(']') {
		return
	}
	for {
		if elem(); s.failed {
			return
		}
		if !s.next(',') {
			s.consume(']')
			return
		}
	}
}

// str reads a string of printable ASCII without escapes and returns the
// bytes between its quotes, which alias the input.
func (s *Scanner) str() []byte {
	if !s.consume('"') {
		return nil
	}
	for i := s.pos; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			b := s.data[s.pos:i]
			s.pos = i + 1
			return b
		case c < 0x20 || c == '\\' || c >= 0x80:
			s.failed = true
			return nil
		}
	}
	s.failed = true
	return nil
}

// Str reads a string value.
func (s *Scanner) Str() string { return string(s.str()) }

// number reads a number in JSON's grammar and reports whether it is an
// integer literal (no fraction or exponent). The literal aliases the input.
func (s *Scanner) number() (lit []byte, integer bool) {
	s.skipSpace()
	d, i := s.data, s.pos
	if s.failed {
		return nil, false
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.failed = true
		return nil, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		integer = false
		if i = digits(d, i+1); d[i-1] == '.' {
			s.failed = true // no digit after the point
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j := digits(d, i); j > i {
			i = j
		} else {
			s.failed = true // no digit in the exponent
			return nil, false
		}
	}
	lit, s.pos = d[s.pos:i], i
	return lit, integer
}

// digits returns the index of the first non-digit in d at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// Int reads an integer literal that fits an int.
func (s *Scanner) Int() int {
	lit, integer := s.number()
	if !integer {
		s.failed = true
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		s.failed = true
		return 0
	}
	return int(n)
}

// float reads a number that fits a float64.
func (s *Scanner) float() float64 {
	lit, _ := s.number()
	if s.failed {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.failed = true
		return 0
	}
	return v
}

// floats reads an array of numbers into a slice of exactly its length:
// an empty array gives an empty, non-nil slice, as encoding/json does.
func (s *Scanner) floats() []float64 {
	buf := s.series[:0]
	s.Array(func() { buf = append(buf, s.float()) })
	s.series = buf
	if s.failed {
		return nil
	}
	out := make([]float64, len(buf))
	copy(out, buf)
	return out
}

// The JSON names of ExperimentJSON's, PlanJSON's and TxnMetrics' fields,
// in the order Experiment's, plan's and txn's switches use.
var (
	experimentFields = []string{"workload", "cpus", "memory_gb", "terminals", "run", "data_group",
		"throughput", "mean_latency_ms", "resources", "throughput_series", "plans", "txn_stats"}
	planFields = []string{"query", "stats"}
	txnFields  = []string{"Name", "Weight", "MeanLatMS", "Throughput"}
)

// Experiment reads one experiment document and converts it like
// (*ExperimentJSON).Experiment, or declines and returns nil.
func (s *Scanner) Experiment() *Experiment {
	e := &Experiment{}
	s.Object(experimentFields, func(i int) {
		switch i {
		case 0:
			e.Workload = s.Str()
		case 1:
			e.SKU.CPUs = s.Int()
		case 2:
			e.SKU.MemoryGB = s.Int()
		case 3:
			e.Terminals = s.Int()
		case 4:
			e.Run = s.Int()
		case 5:
			e.DataGroup = s.Int()
		case 6:
			e.Throughput = s.float()
		case 7:
			e.MeanLatMS = s.float()
		case 8:
			s.resources(&e.Resources)
		case 9:
			e.ThroughputSeries = s.floats()
		case 10: // "plans": [] leaves Plans nil, as Experiment does
			s.Array(func() { e.Plans = append(e.Plans, s.plan()) })
		case 11: // "txn_stats": [] gives an empty, non-nil slice, as encoding/json does
			e.TxnStats = []TxnMetrics{}
			s.Array(func() { e.TxnStats = append(e.TxnStats, s.txn()) })
		}
	})
	if s.failed {
		return nil
	}
	return e
}

// resources reads the resource series object: none, or all seven with
// one tick count.
func (s *Scanner) resources(rs *ResourceSeries) {
	n := 0
	s.features(Resource, func(f Feature) {
		rs.Samples[f] = s.floats()
		n++
	})
	if n != 0 && n != NumResourceFeatures {
		s.failed = true
	}
	for _, series := range rs.Samples {
		if len(series) != rs.Len() {
			s.failed = true
		}
	}
}

func (s *Scanner) plan() PlanObservation {
	var p PlanObservation
	s.Object(planFields, func(i int) {
		if i == 0 {
			p.Query = s.Str()
			return
		}
		s.features(Plan, func(f Feature) { p.Stats[int(f)-NumResourceFeatures] = s.float() })
	})
	return p
}

func (s *Scanner) txn() TxnMetrics {
	var t TxnMetrics
	s.Object(txnFields, func(i int) {
		switch i {
		case 0:
			t.Name = s.Str()
		case 1:
			t.Weight = s.float()
		case 2:
			t.MeanLatMS = s.float()
		case 3:
			t.Throughput = s.float()
		}
	})
	return t
}
