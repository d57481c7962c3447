package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"wpred/internal/serve"
)

// TestOutputCheckRejectsTamperedBody answers key-churn requests with an
// in-process server configured like wpredd, then checks that the output
// check accepts the real bodies and rejects altered ones.
func TestOutputCheckRejectsTamperedBody(t *testing.T) {
	wl, _ := workloadByName("key-churn")
	in, err := generate(wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Refs: in.refs, Seed: in.seed})
	send := inProcessSender(srv.Handler())

	r := &in.reqs[0]
	ex := send(r.path, r.body)
	if ex.code != http.StatusOK {
		t.Fatalf("status %d: %s", ex.code, ex.body)
	}
	verdicts, _, err := o.verifyPredict(r, ex.body)
	if err != nil || verdicts[0] != itemOK {
		t.Fatalf("genuine body rejected: %v %v", verdicts, err)
	}

	var fields map[string]any
	if err := json.Unmarshal(ex.body, &fields); err != nil {
		t.Fatal(err)
	}
	for _, tamper := range []struct {
		name  string
		field string
		value any
	}{
		{"throughput last bit", "predicted_throughput", math.Nextafter(fields["predicted_throughput"].(float64), math.Inf(1))},
		{"interval low", "predicted_lo", fields["predicted_lo"].(float64) * 0.5},
		{"interval high", "predicted_hi", fields["predicted_hi"].(float64) + 1},
		{"nearest reference", "nearest_reference", "not-a-workload"},
	} {
		t.Run(tamper.name, func(t *testing.T) {
			alt := map[string]any{}
			for k, v := range fields {
				alt[k] = v
			}
			alt[tamper.field] = tamper.value
			body, err := json.Marshal(alt)
			if err != nil {
				t.Fatal(err)
			}
			verdicts, _, err := o.verifyPredict(r, body)
			if err == nil || verdicts[0] != itemWrong {
				t.Errorf("tampered %s accepted: %v %v", tamper.field, verdicts, err)
			}
		})
	}
	if v, _, err := o.verifyPredict(r, append(bytes.Clone(ex.body), '{')); err == nil || v[0] != itemWrong {
		t.Error("trailing garbage accepted")
	}

	// A batch whose second item carries an error counts that item failed.
	batchReq := &request{key: r.key, items: []item{r.items[0], r.items[0]}, path: "/v1/predict/batch"}
	good := strings.TrimSpace(string(ex.body))
	batch := `{"results":[{"prediction":` + good + `},{"error":"serve: boom"}]}`
	verdicts, _, err = o.verifyPredict(batchReq, []byte(batch))
	if err == nil || verdicts[0] != itemOK || verdicts[1] != itemError {
		t.Errorf("batch with an item error: verdicts %v, err %v", verdicts, err)
	}

	// An observation answer that disagrees with the in-process detector.
	obs := &in.settle[len(in.settle)-1]
	ob := send("/v1/observe", obs.obs.body)
	want := newDriftOracle(in.seed).next(obs)
	if err := verifyObserve(ob.body, want); err != nil {
		t.Fatalf("genuine observe answer rejected: %v", err)
	}
	want.Status = "drift"
	if err := verifyObserve(ob.body, want); err == nil {
		t.Error("observe answer accepted against a different expectation")
	}
}
