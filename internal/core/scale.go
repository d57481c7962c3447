package core

import (
	"fmt"
	"math"

	"wpred/internal/obs"
	"wpred/internal/parallel"
	"wpred/internal/roofline"
	"wpred/internal/scalemodel"
	"wpred/internal/telemetry"
)

// Scaling-memo lookups by outcome: a fill fits the nearest reference's
// scaling model and stores the stage, a hit reuses a stored (or in-flight)
// one. Lookups the memo cannot hold are counted under neither.
func memoCounter(outcome string) *obs.Counter {
	return obs.GetCounter("wpred_pipeline_scale_memo_total",
		"Scaling-stage memo lookups, by outcome (fill = model fitted and stored, hit = stored stage reused).",
		obs.Labels{"outcome": outcome})
}

var (
	scaleMemoFills = memoCounter("fill")
	scaleMemoHits  = memoCounter("hit")
)

// scaleKey identifies one scaling stage: the reference workload whose
// model scales the target, and the full source and target SKUs.
type scaleKey struct {
	nearest  string
	from, to telemetry.SKU
}

// scaleStage is everything the scaling stage derives from reference data
// alone for one scaleKey. None of it depends on the target's observed
// throughput, which apply combines with it on every Predict.
type scaleStage struct {
	// err is the fit's failure (or a memo fill's panic), if any; the
	// other fields are then unset.
	err error
	// factor is the pairwise model's scaling factor at the reference's
	// from-SKU operating point; refAt and refTo are the single model's
	// absolute predictions at the from and to SKUs.
	factor, refAt, refTo float64
	// flo and fhi bound the reference's per-point scaling factors
	// (factorInterval); interval reports whether the data supports them.
	flo, fhi float64
	interval bool
	// bound is the reference's roofline ceiling at the to SKU and
	// refAtFrom its mean throughput at the from SKU; clamp reports that
	// RooflineClamp is on and the roofline fit succeeded.
	bound, refAtFrom float64
	clamp            bool
}

// memoEntry is one memo slot. done closes when the fill finishes; st is
// read-only after that.
type memoEntry struct {
	done chan struct{}
	st   scaleStage
}

// apply scales the target's observed throughput with the stage, using the
// same floating-point expressions as fitting per call did, so a memoized
// stage answers bit for bit like a fresh fit.
func (st *scaleStage) apply(ctx scalemodel.Context, observed float64) *Prediction {
	var predicted float64
	switch ctx {
	case scalemodel.Single:
		// Rescale the reference's absolute prediction by the ratio of
		// the target's observation to the reference's from-SKU level.
		predicted = observed * st.refTo / st.refAt
	case scalemodel.Pairwise:
		// The pairwise model maps reference from-SKU throughput to
		// to-SKU throughput; apply its scaling factor at the reference
		// operating point to the target's observation.
		predicted = observed * st.factor
	}
	if st.clamp {
		// Scale the reference ceiling to the target's operating point.
		if bound := st.bound * (observed / st.refAtFrom); predicted > bound {
			predicted = bound
		}
	}
	lo, hi := predicted, predicted
	if st.interval {
		lo, hi = observed*st.flo, observed*st.fhi
		if predicted < lo {
			lo = predicted
		}
		if predicted > hi {
			hi = predicted
		}
	}
	return &Prediction{PredictedThroughput: predicted, PredictedLo: lo, PredictedHi: hi}
}

// scaleVia applies the named reference workload's scaling model for the
// SKU pair to the observed throughput, filling the prediction fields the
// scaling stage owns (throughput and interval).
func (p *Pipeline) scaleVia(nearest string, fromSKU, toSKU telemetry.SKU, observed float64) (*Prediction, error) {
	st, err := p.stageFor(scaleKey{nearest: nearest, from: fromSKU, to: toSKU})
	if err != nil {
		return nil, err
	}
	return st.apply(p.cfg.Context, observed), nil
}

// stageFor returns the stage for key from the memo, filling it on first
// use. The memo holds a key only once both SKUs resolve exactly in the
// reference's scaling dataset, so its size is bounded by the reference
// suite whatever requests name; any other key is computed per call and
// stored nowhere. Concurrent first uses of a key share one fill.
func (p *Pipeline) stageFor(key scaleKey) (*scaleStage, error) {
	if e, _ := p.memoGet(key, false); e != nil {
		return e.wait()
	}
	rds, fromIdx, toIdx, err := p.scalingDataset(key)
	if err != nil {
		return nil, err
	}
	if toIdx < 0 || rds.SKUs[fromIdx] != key.from || rds.SKUs[toIdx] != key.to {
		st := p.fitStage(rds, fromIdx, toIdx, key)
		return &st, st.err
	}
	e, fill := p.memoGet(key, true)
	if fill {
		p.fill(key, e, rds, fromIdx, toIdx)
	}
	return e.wait()
}

// memoGet returns key's entry, counting a hit. A missing key returns nil,
// or, with claim set, a fresh entry the caller must fill (fill true).
func (p *Pipeline) memoGet(key scaleKey, claim bool) (e *memoEntry, fill bool) {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if e, ok := p.memo[key]; ok {
		scaleMemoHits.Inc()
		return e, false
	}
	if !claim {
		return nil, false
	}
	if p.memo == nil {
		p.memo = map[scaleKey]*memoEntry{}
	}
	e = &memoEntry{done: make(chan struct{})}
	p.memo[key] = e
	scaleMemoFills.Inc()
	return e, true
}

// scaleFillPanics counts the panics recovered in memo fills.
var scaleFillPanics = parallel.NewPanicSite("scale_memo_fill")

// testHookScaleFill, when set, runs at the start of every memo fill.
// Tests use it to inject a panicking fit.
var testHookScaleFill func()

// fill fits the stage into e and releases its waiters. A panicking fit
// drops the entry and hands every waiter the panic as a
// *parallel.PanicError, so the next lookup fits again instead of finding
// a wedged key.
func (p *Pipeline) fill(key scaleKey, e *memoEntry, rds *scalemodel.Dataset, fromIdx, toIdx int) {
	defer close(e.done)
	defer func() {
		if v := recover(); v != nil {
			e.st = scaleStage{err: scaleFillPanics.Error(v)}
			p.memoMu.Lock()
			if p.memo[key] == e {
				delete(p.memo, key)
			}
			p.memoMu.Unlock()
		}
	}()
	if testHookScaleFill != nil {
		testHookScaleFill()
	}
	e.st = p.fitStage(rds, fromIdx, toIdx, key)
}

// wait blocks until the entry's fill finishes and returns its stage.
func (e *memoEntry) wait() (*scaleStage, error) {
	<-e.done
	return &e.st, e.st.err
}

// scalingDataset builds the reference workload's scaling dataset for the
// key's SKU pair and resolves both SKUs in it by CPU count. Pairwise
// models need the exact SKU pair; single models can use every profiled SKU
// and may extrapolate to a target SKU that was never observed (toIdx -1).
func (p *Pipeline) scalingDataset(key scaleKey) (rds *scalemodel.Dataset, fromIdx, toIdx int, err error) {
	var refSetting []*telemetry.Experiment
	for _, e := range p.refs {
		if e.Workload != key.nearest {
			continue
		}
		if p.cfg.Context == scalemodel.Single || e.SKU == key.from || e.SKU == key.to {
			refSetting = append(refSetting, e)
		}
	}
	src := telemetry.NewSource(p.cfg.Seed)
	rds, err = scalemodel.FromExperiments(refSetting, p.cfg.Subsamples, src)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: scaling dataset for %s: %w", key.nearest, err)
	}
	if fromIdx, err = rds.SKUIndex(key.from.CPUs); err != nil {
		return nil, 0, 0, err
	}
	toIdx = -1
	if p.cfg.Context == scalemodel.Pairwise {
		if toIdx, err = rds.SKUIndex(key.to.CPUs); err != nil {
			return nil, 0, 0, err
		}
	} else if idx, idxErr := rds.SKUIndex(key.to.CPUs); idxErr == nil {
		toIdx = idx
	}
	return rds, fromIdx, toIdx, nil
}

// fitStage fits the scaling model on the reference's dataset and derives
// the key's stage.
func (p *Pipeline) fitStage(rds *scalemodel.Dataset, fromIdx, toIdx int, key scaleKey) scaleStage {
	var st scaleStage
	switch p.cfg.Context {
	case scalemodel.Single:
		m, err := scalemodel.FitSingle(p.cfg.Strategy, rds, nil, p.cfg.Seed)
		if err != nil {
			return scaleStage{err: err}
		}
		st.refAt = m.Predict(key.from.CPUs)
		st.refTo = m.Predict(key.to.CPUs)
		if st.refAt <= 0 {
			return scaleStage{err: fmt.Errorf("core: single model predicts non-positive throughput at %s", key.from)}
		}
	case scalemodel.Pairwise:
		m, err := scalemodel.FitPair(p.cfg.Strategy, rds, fromIdx, toIdx, nil, p.cfg.Seed)
		if err != nil {
			return scaleStage{err: err}
		}
		st.factor = m.ScalingFactor(mean(rds.Obs[fromIdx]))
	}
	if p.cfg.RooflineClamp {
		st.bound, st.refAtFrom, st.clamp = rooflineCeiling(rds, fromIdx, key.to.CPUs)
	}
	if toIdx >= 0 {
		st.flo, st.fhi, st.interval = factorInterval(rds, fromIdx, toIdx)
	}
	return st
}

// factorInterval computes an approximate 95% interval on the reference's
// SKU-to-SKU scaling factor from the dispersion of the matched per-point
// factors.
func factorInterval(rds *scalemodel.Dataset, fromIdx, toIdx int) (lo, hi float64, ok bool) {
	n := rds.NPoints()
	if n < 3 {
		return 0, 0, false
	}
	factors := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		from := rds.Obs[fromIdx][i]
		if from <= 0 {
			continue
		}
		factors = append(factors, rds.Obs[toIdx][i]/from)
	}
	if len(factors) < 3 {
		return 0, 0, false
	}
	m := mean(factors)
	variance := 0.0
	for _, f := range factors {
		d := f - m
		variance += d * d
	}
	sd := math.Sqrt(variance / float64(len(factors)-1))
	return m - 1.96*sd, m + 1.96*sd, true
}

// rooflineCeiling fits a roofline on the reference workload's observed
// scaling curve (Appendix B of the paper) and returns its ceiling at the
// target CPU count together with the reference's mean throughput at the
// from SKU; apply scales the ceiling to the target's operating point, so
// a prediction never exceeds the reference's relative saturation ceiling.
// It reports false when the reference data cannot support a fit.
func rooflineCeiling(rds *scalemodel.Dataset, fromIdx, toCPUs int) (bound, refAtFrom float64, ok bool) {
	cpus := make([]float64, 0, len(rds.SKUs))
	tput := make([]float64, 0, len(rds.SKUs))
	for si, sku := range rds.SKUs {
		cpus = append(cpus, float64(sku.CPUs))
		tput = append(tput, mean(rds.Obs[si]))
	}
	roof, err := roofline.FitCeilings(cpus, tput, 1.05)
	if err != nil {
		return 0, 0, false
	}
	refAtFrom = mean(rds.Obs[fromIdx])
	if refAtFrom <= 0 {
		return 0, 0, false
	}
	return roof.Bound(float64(toCPUs)), refAtFrom, true
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
