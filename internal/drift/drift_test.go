package drift

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"wpred/internal/telemetry"
)

// stream builds a synthetic feedback stream: predictions are a constant
// level, observations follow gen(tick) with seeded Gaussian noise.
func stream(n int, level, noise float64, seed uint64, gen func(t int) float64) []Observation {
	src := telemetry.NewSource(seed).Child("drift-test")
	out := make([]Observation, n)
	for i := range out {
		out[i] = Observation{
			Tick:      int64(i),
			Predicted: level,
			Observed:  gen(i) + src.Normal(0, noise),
		}
	}
	return out
}

func feed(m *Monitor, obs []Observation) []Event {
	var evs []Event
	for _, o := range obs {
		if ev, ok := m.Observe(o); ok {
			evs = append(evs, ev)
		}
	}
	return evs
}

// TestAbruptShiftDetectedOnce injects a step change in observed demand at
// a known tick and requires exactly one confirmed event, classified
// abrupt, within a bounded delay of the onset.
func TestAbruptShiftDetectedOnce(t *testing.T) {
	const at = 200
	for seed := uint64(1); seed <= 5; seed++ {
		obs := stream(at+120, 100, 2, seed, func(i int) float64 {
			if i >= at {
				return 170
			}
			return 100
		})
		m := NewMonitor(Config{Seed: seed})
		evs := feed(m, obs)
		if len(evs) != 1 {
			t.Fatalf("seed %d: %d events %+v, want exactly 1", seed, len(evs), evs)
		}
		ev := evs[0]
		if ev.Kind != Abrupt {
			t.Errorf("seed %d: kind %q, want abrupt (%+v)", seed, ev.Kind, ev)
		}
		if ev.Tick < at || ev.Tick > at+40 {
			t.Errorf("seed %d: confirmed at tick %d, want within [%d,%d]", seed, ev.Tick, at, at+40)
		}
		if ev.OnsetIndex < at-10 || ev.OnsetIndex > at+10 {
			t.Errorf("seed %d: onset estimate %d too far from true onset %d", seed, ev.OnsetIndex, at)
		}
		if ev.PostMean <= ev.PreMean {
			t.Errorf("seed %d: post mean %.3f not above pre mean %.3f for an upward shift", seed, ev.PostMean, ev.PreMean)
		}
	}
}

// TestGradualRampClassified ramps the observed level over many ticks and
// expects the confirming event to be classified gradual: the level is
// still moving when the change is confirmed.
func TestGradualRampClassified(t *testing.T) {
	const start, rampLen = 150, 100
	obs := stream(start+rampLen+60, 100, 1.5, 3, func(i int) float64 {
		switch {
		case i < start:
			return 100
		case i < start+rampLen:
			return 100 + 70*float64(i-start)/rampLen
		default:
			return 170
		}
	})
	m := NewMonitor(Config{Seed: 3})
	evs := feed(m, obs)
	if len(evs) == 0 {
		t.Fatal("gradual ramp never confirmed")
	}
	if evs[0].Kind != Gradual {
		t.Errorf("first event kind %q, want gradual (%+v)", evs[0].Kind, evs[0])
	}
}

// TestCyclicPatternClassified feeds a time-of-day style periodic demand
// error and expects at least one event classified cyclic: the seasonal
// naive baseline explains the stream, so it is not a new regime.
func TestCyclicPatternClassified(t *testing.T) {
	const season = 24
	obs := stream(300, 100, 0.5, 5, func(i int) float64 {
		return 100 + 40*math.Sin(2*math.Pi*float64(i)/season)
	})
	m := NewMonitor(Config{Seed: 5, Season: season})
	evs := feed(m, obs)
	if len(evs) == 0 {
		t.Fatal("periodic stream produced no events to classify")
	}
	saw := false
	for _, ev := range evs {
		if ev.Kind == Cyclic {
			saw = true
		}
	}
	if !saw {
		t.Errorf("no event classified cyclic: %+v", evs)
	}
}

// TestStableStreamQuiet pins the false-positive behavior: a healthy
// stream (small, stationary prediction error) confirms no regime change
// over a long horizon.
func TestStableStreamQuiet(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		obs := stream(600, 100, 2, seed, func(int) float64 { return 100 })
		m := NewMonitor(Config{Seed: seed})
		if evs := feed(m, obs); len(evs) != 0 {
			t.Errorf("seed %d: stable stream confirmed %d events %+v", seed, len(evs), evs)
		}
	}
}

// TestNonFiniteObservationsIgnored asserts NaN/Inf feedback cannot poison
// the detector state.
func TestNonFiniteObservationsIgnored(t *testing.T) {
	m := NewMonitor(Config{})
	for _, o := range []Observation{
		{Observed: math.NaN(), Predicted: 1},
		{Observed: 1, Predicted: math.Inf(1)},
		{Observed: math.Inf(-1), Predicted: math.NaN()},
	} {
		if _, ok := m.Observe(o); ok {
			t.Errorf("non-finite observation %+v confirmed an event", o)
		}
	}
	if m.Count() != 0 {
		t.Errorf("non-finite observations counted: %d", m.Count())
	}
}

// TestForecastDeterministicAndOrdered requires the same window and seed
// to produce byte-identical forecasts, with coherent bands.
func TestForecastDeterministicAndOrdered(t *testing.T) {
	build := func() *Monitor {
		m := NewMonitor(Config{Seed: 11})
		feed(m, stream(200, 100, 3, 7, func(i int) float64 {
			return 100 + 0.2*float64(i)
		}))
		return m
	}
	a, b := build().Forecast(12), build().Forecast(12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same window and seed produced different forecasts:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Values) != 12 || len(a.Lo) != 12 || len(a.Hi) != 12 {
		t.Fatalf("forecast horizon mismatch: %+v", a)
	}
	for i := range a.Values {
		if !finite(a.Values[i]) || !finite(a.Lo[i]) || !finite(a.Hi[i]) {
			t.Fatalf("non-finite forecast at step %d: %+v", i, a)
		}
		if a.Lo[i] > a.Hi[i] {
			t.Errorf("step %d: Lo %.3f above Hi %.3f", i, a.Lo[i], a.Hi[i])
		}
	}
	// A rising stream must forecast above the window's early level.
	if a.Values[0] < 110 {
		t.Errorf("upward-trending stream forecast %.2f, want well above the early level 100", a.Values[0])
	}
}

// TestStateRoundTrip pins the snapshot contract: State→JSON→Restore
// reproduces the window and counters exactly, and two restores from the
// same state stay in lockstep on subsequent observations.
func TestStateRoundTrip(t *testing.T) {
	m := NewMonitor(Config{Window: 64, Seed: 9})
	obs := stream(300, 100, 2, 9, func(i int) float64 {
		if i >= 150 {
			return 160
		}
		return 100
	})
	feed(m, obs)
	st := m.State()
	if st.Events != m.Events() || len(st.Window) != 64 {
		t.Fatalf("state %+v does not reflect monitor (events=%d)", st, m.Events())
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatal("state did not survive JSON round trip")
	}

	r1 := Restore(Config{Window: 64, Seed: 9}, back)
	r2 := Restore(Config{Window: 64, Seed: 9}, back)
	if r1.Events() != m.Events() || r1.Count() != 64 {
		t.Fatalf("restore events=%d count=%d, want %d/64", r1.Events(), r1.Count(), m.Events())
	}
	if !reflect.DeepEqual(r1.State(), st) {
		t.Fatalf("re-captured state differs:\n%+v\nvs\n%+v", r1.State(), st)
	}
	// Two restores must agree observation for observation afterwards.
	next := stream(100, 100, 2, 10, func(int) float64 { return 160 })
	for i, o := range next {
		e1, ok1 := r1.Observe(o)
		e2, ok2 := r2.Observe(o)
		if ok1 != ok2 || e1 != e2 {
			t.Fatalf("restored monitors diverged at obs %d: (%v,%v) vs (%v,%v)", i, e1, ok1, e2, ok2)
		}
	}
	if !reflect.DeepEqual(r1.Forecast(8), r2.Forecast(8)) {
		t.Fatal("restored monitors produced different forecasts")
	}
}

// TestTrackerRoutesKeysIndependently interleaves a drifting key with a
// stable one and requires per-key results identical to standalone
// monitors fed the same streams.
func TestTrackerRoutesKeysIndependently(t *testing.T) {
	drifting := stream(320, 100, 2, 21, func(i int) float64 {
		if i >= 160 {
			return 165
		}
		return 100
	})
	stable := stream(320, 100, 2, 22, func(int) float64 { return 100 })

	cfg := Config{Seed: 4}
	tr := NewTracker(cfg)
	var trEvents []Event
	for i := range drifting {
		if ev, ok := tr.Observe("hot", drifting[i]); ok {
			trEvents = append(trEvents, ev)
		}
		if ev, ok := tr.Observe("cold", stable[i]); ok {
			t.Fatalf("stable key confirmed event %+v", ev)
		}
	}

	solo := NewMonitor(cfg)
	soloEvents := feed(solo, drifting)
	if !reflect.DeepEqual(trEvents, soloEvents) {
		t.Fatalf("tracker events %+v differ from standalone %+v", trEvents, soloEvents)
	}
	if !reflect.DeepEqual(tr.Forecast("hot", 6), solo.Forecast(6)) {
		t.Fatal("tracker forecast differs from standalone monitor")
	}
	if tr.Forecast("unknown", 6) != nil {
		t.Fatal("unknown key returned a forecast")
	}
	if keys := tr.Keys(); !reflect.DeepEqual(keys, []string{"cold", "hot"}) {
		t.Fatalf("keys %v, want [cold hot]", keys)
	}

	// Tracker state round-trips deterministically too.
	ts := tr.State()
	rt := RestoreTracker(cfg, ts)
	if !reflect.DeepEqual(rt.State(), ts) {
		t.Fatal("tracker state did not survive restore")
	}
	k, obs, evs, _ := rt.Stats()
	if k != 2 || obs != 2*cfg.withDefaults().Window || evs != len(trEvents) {
		t.Fatalf("restored stats keys=%d obs=%d events=%d", k, obs, evs)
	}
}

// TestTrackerNegativeSeasonDisablesCyclic pins that the tracker applies
// the config defaults once: Season -1 must reach its monitors as 0 (no
// seasonality), not be defaulted a second time back to 24. The same
// periodic stream that the default season classifies cyclic then yields
// only non-cyclic events.
func TestTrackerNegativeSeasonDisablesCyclic(t *testing.T) {
	const season = 24
	obs := stream(300, 100, 0.5, 5, func(i int) float64 {
		return 100 + 40*math.Sin(2*math.Pi*float64(i)/season)
	})
	kinds := func(cfg Config) map[Kind]int {
		tr := NewTracker(cfg)
		out := map[Kind]int{}
		for _, o := range obs {
			if ev, ok := tr.Observe("k", o); ok {
				out[ev.Kind]++
			}
		}
		return out
	}
	if got := kinds(Config{Seed: 5}); got[Cyclic] == 0 {
		t.Fatalf("default season classified no event cyclic: %v", got)
	}
	got := kinds(Config{Seed: 5, Season: -1})
	if got[Cyclic] != 0 || len(got) == 0 {
		t.Errorf("Season -1 events by kind = %v, want events and none cyclic", got)
	}
}
