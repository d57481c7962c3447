// The /v1/observe feedback loop: callers report what a served prediction
// said and what the workload actually did, the streaming drift layer
// (internal/drift) watches the residual stream per registry key, and a
// confirmed non-cyclic regime change invalidates the key — a background
// single-flight refit through Registry.Refit, with the old model serving
// until the new one is ready. See "Drift & forecasting" in DESIGN.md.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"wpred/internal/drift"
	"wpred/internal/obs"
)

// Drift metrics. Counters cover the feedback loop end to end: samples in,
// regime changes confirmed, refits actually triggered (cyclic events are
// classified, reported, and deliberately not refit).
var (
	driftObsTotal = obs.GetCounter("wpred_drift_observations_total",
		"Feedback observations ingested via /v1/observe.", nil)
	driftEventsTotal = obs.GetCounter("wpred_drift_events_total",
		"Regime changes confirmed by the streaming drift detector.", nil)
	driftRefitsTotal = obs.GetCounter("wpred_drift_refits_total",
		"Registry refits triggered by confirmed non-cyclic drift events.", nil)
	driftDelayObs = obs.GetHistogram("wpred_drift_detection_delay_observations",
		"Confirmation delay of drift events, in observations past the estimated onset.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128}, nil)
)

// driftStateFile is the tracker's persistence file inside the snapshot
// directory, saved on drain next to the model snapshots so a warm restart
// does not forget the per-key observation windows.
const driftStateFile = "drift_state.json"

// observeRequest is the wire form of one feedback observation: the model
// key the prediction came from (defaults applied like /v1/predict), a
// caller-supplied logical tick, and the predicted vs observed resource
// value.
type observeRequest struct {
	Selection string  `json:"selection,omitempty"`
	Metric    string  `json:"metric,omitempty"`
	Model     string  `json:"model,omitempty"`
	Tick      int64   `json:"tick"`
	Observed  float64 `json:"observed"`
	Predicted float64 `json:"predicted"`
}

// observeResponse is the wire form of the feedback answer. Status is "ok"
// for an uneventful sample and "drift" when this observation confirmed a
// regime change; refit reports whether the key was invalidated (cyclic
// changes are reported but never refit).
type observeResponse struct {
	Status     string `json:"status"`
	Kind       string `json:"kind,omitempty"`
	OnsetIndex int    `json:"onset_index,omitempty"`
	DelayObs   int    `json:"delay_obs,omitempty"`
	Refit      bool   `json:"refit,omitempty"`
}

// decodeObserveRequest decodes and validates one feedback observation.
func decodeObserveRequest(body []byte) (Key, drift.Observation, error) {
	var raw observeRequest
	if err := decodeStrict(body, &raw, "observation"); err != nil {
		return Key{}, drift.Observation{}, err
	}
	key, err := validateKey(raw.Selection, raw.Metric, raw.Model)
	if err != nil {
		return Key{}, drift.Observation{}, err
	}
	if !finite(raw.Observed) || !finite(raw.Predicted) {
		return Key{}, drift.Observation{}, errors.New("serve: observed and predicted must be finite")
	}
	return key, drift.Observation{Tick: raw.Tick, Observed: raw.Observed, Predicted: raw.Predicted}, nil
}

// handleObserve ingests one feedback observation. The response reports
// synchronously whether this sample confirmed a regime change; the refit
// it may trigger runs in the background (single-flight per key) while the
// resident model keeps serving, so there is no cold-start cliff and no
// 5xx window during the swap.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	key, o, err := decodeObserveRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	driftObsTotal.Inc()
	ev, ok := s.tracker.Observe(key.String(), o)
	if !ok {
		writeJSON(w, http.StatusOK, observeResponse{Status: "ok"})
		return
	}
	s.driftEvents.Add(1)
	driftEventsTotal.Inc()
	driftDelayObs.Observe(float64(ev.DelayObs))
	resp := observeResponse{
		Status:     "drift",
		Kind:       string(ev.Kind),
		OnsetIndex: ev.OnsetIndex,
		DelayObs:   ev.DelayObs,
	}
	if ev.Kind != drift.Cyclic {
		resp.Refit = true
		s.driftRefits.Add(1)
		driftRefitsTotal.Inc()
		flight := s.registry.Refit(key)
		go func() {
			err := flight.Wait()
			if s.testHookRefitDone != nil {
				s.testHookRefitDone(key, err)
			}
		}()
	}
	writeJSON(w, http.StatusOK, resp)
}

// DriftForecast returns the near-future demand forecast for a key's
// observed stream (nil when the key has no feedback yet) — the daemon's
// capacity-planning hook.
func (s *Server) DriftForecast(k Key, horizon int) *drift.Forecast {
	return s.tracker.Forecast(k.withDefaults().String(), horizon)
}

// persistDriftState saves the tracker windows next to the model
// snapshots, through the snapshot store's atomic writer, so a crash
// mid-write leaves the previous state intact.
func (s *Server) persistDriftState() error {
	if s.snaps == nil {
		return nil
	}
	raw, err := json.Marshal(s.tracker.State())
	if err == nil {
		err = s.snaps.store.WriteFile(driftStateFile, func(w io.Writer) error {
			_, err := w.Write(raw)
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("serve: drift state: %w", err)
	}
	return nil
}

// restoreDriftState reloads the tracker windows persisted by a previous
// life, returning how many key monitors were restored. A missing file is
// a cold start, not an error; a corrupt file is ignored (the tracker
// simply starts cold) rather than blocking the restart.
func (s *Server) restoreDriftState() int {
	if s.snaps == nil {
		return 0
	}
	raw, err := os.ReadFile(filepath.Join(s.snaps.store.Dir(), driftStateFile))
	if err != nil {
		return 0
	}
	var st drift.TrackerState
	if err := json.Unmarshal(raw, &st); err != nil {
		return 0
	}
	return s.tracker.LoadState(st)
}

// driftStatusJSON is the drift section of the health payloads.
type driftStatusJSON struct {
	Keys         int    `json:"keys"`
	Observations int    `json:"observations"`
	Events       uint64 `json:"events"`
	Refits       uint64 `json:"refits"`
}

// driftStatus renders the health-payload drift section.
func (s *Server) driftStatus() *driftStatusJSON {
	keys, observations, _, _ := s.tracker.Stats()
	return &driftStatusJSON{
		Keys:         keys,
		Observations: observations,
		Events:       s.driftEvents.Load(),
		Refits:       s.driftRefits.Load(),
	}
}
