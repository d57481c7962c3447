// Package nnet implements a multi-layer perceptron regressor trained with
// Adam, matching the paper's setup (a 6-layer Scikit-Learn MLPRegressor).
// The paper's Table 6 shows it performing far worse than the simple models
// on the tiny scaling datasets — reproducing that failure mode requires a
// faithful implementation, not a better-tuned one.
package nnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"wpred/internal/mat"
	"wpred/internal/ml"
	"wpred/internal/parallel"
)

// mlpParallelMinRows gates the parallel batch path: epochs fan the
// per-sample forward/backward passes out across the worker pool only for
// batches at least this large, because below it the fan-out bookkeeping
// (and its per-epoch closure allocations) costs more than the math. The
// parallel path is bit-identical to the inline one — phase one computes
// each sample's activations and deltas into its own matrix row (disjoint
// writes, deterministic per sample) and phase two accumulates gradients
// serially in exactly the inline loop's sample/layer/unit order — so the
// threshold affects speed only, never the fit. Variable (not const) so
// tests can lower it to exercise the parallel path on small fixtures.
var mlpParallelMinRows = 256

// mlpBlockRows is the fan-out granularity of the parallel batch path;
// block boundaries depend only on the row count, never the worker count.
const mlpBlockRows = 64

// MLP is a fully-connected feed-forward regressor with ReLU activations.
type MLP struct {
	// Hidden lists the hidden-layer widths; nil selects six layers of 50
	// units (the paper specifies "6 layers"; the width keeps training
	// tractable on the study's tiny datasets).
	Hidden []int
	// Epochs of full-batch Adam (default 200, Scikit-Learn's max_iter).
	Epochs int
	// LearningRate for Adam (default 1e-3).
	LearningRate float64
	// Standardize scales inputs and target to zero mean / unit variance
	// before training. Scikit-Learn's MLPRegressor does NOT do this, and
	// the paper's NNet rows inherit the resulting failure on raw
	// throughput targets — so the default here is false for fidelity.
	// Set it to true when you actually want a usable network.
	Standardize bool
	// Seed controls weight initialization.
	Seed uint64

	weights []*mat.Dense // per layer: out×in
	biases  [][]float64
	std     *ml.Standardizer
	yMean   float64
	yScale  float64
	fitted  bool
	ws      mat.Workspace // training scratch, reused across Fit calls
}

func (m *MLP) params() (hidden []int, epochs int, lr float64) {
	hidden = m.Hidden
	if len(hidden) == 0 {
		hidden = []int{50, 50, 50, 50, 50, 50}
	}
	epochs = m.Epochs
	if epochs == 0 {
		epochs = 200
	}
	lr = m.LearningRate
	if lr == 0 {
		lr = 1e-3
	}
	return hidden, epochs, lr
}

// Fit trains the network with full-batch Adam on standardized inputs and
// target.
func (m *MLP) Fit(X *mat.Dense, y []float64) error {
	r, c := X.Dims()
	if r != len(y) {
		return fmt.Errorf("nnet: %d rows but %d targets", r, len(y))
	}
	if r == 0 {
		return errors.New("nnet: empty training set")
	}
	hidden, epochs, lr := m.params()

	ws := &m.ws
	var xs *mat.Dense
	ys := ws.GetVector(r)
	defer ws.PutVector(ys)
	if m.Standardize {
		m.std = ml.FitStandardizer(X)
		sx := ws.GetMatrix(r, c)
		defer ws.PutMatrix(sx)
		xs = m.std.TransformInto(sx, X)
		m.yMean, m.yScale = meanStd(y)
		for i, v := range y {
			ys[i] = (v - m.yMean) / m.yScale
		}
	} else {
		m.std = nil
		m.yMean, m.yScale = 0, 1
		xs = X // read-only below, no copy needed
		copy(ys, y)
	}

	sizes := append(append([]int{c}, hidden...), 1)
	nLayers := len(sizes) - 1
	rng := rand.New(rand.NewPCG(m.Seed, m.Seed^0x5eed))
	// Weights and biases persist as model state, so they are model-owned
	// (not workspace-borrowed) and recycled across fits when shapes allow.
	if len(m.weights) != nLayers {
		m.weights = make([]*mat.Dense, nLayers)
		m.biases = make([][]float64, nLayers)
	}
	for l := 0; l < nLayers; l++ {
		in, out := sizes[l], sizes[l+1]
		if m.weights[l] == nil {
			m.weights[l] = mat.New(out, in)
		} else {
			m.weights[l].Reset(out, in)
		}
		w := m.weights[l]
		scale := math.Sqrt(2 / float64(in)) // He initialization for ReLU
		for i := 0; i < out; i++ {
			for j := 0; j < in; j++ {
				w.Set(i, j, rng.NormFloat64()*scale)
			}
		}
		if cap(m.biases[l]) < out {
			m.biases[l] = make([]float64, out)
		} else {
			m.biases[l] = m.biases[l][:out]
			for i := range m.biases[l] {
				m.biases[l][i] = 0
			}
		}
	}
	if testHookWeightsInit != nil {
		testHookWeightsInit(m.weights)
	}

	// Adam state (borrowed zeroed from the workspace, as Adam starts from
	// zero moments each fit).
	mw := make([]*mat.Dense, nLayers)
	vw := make([]*mat.Dense, nLayers)
	mb := make([][]float64, nLayers)
	vb := make([][]float64, nLayers)
	gw := make([]*mat.Dense, nLayers)
	gb := make([][]float64, nLayers)
	for l := 0; l < nLayers; l++ {
		o, in := m.weights[l].Dims()
		mw[l], vw[l], gw[l] = ws.GetMatrix(o, in), ws.GetMatrix(o, in), ws.GetMatrix(o, in)
		mb[l], vb[l], gb[l] = ws.GetVector(o), ws.GetVector(o), ws.GetVector(o)
	}
	defer func() {
		for l := nLayers - 1; l >= 0; l-- {
			ws.PutVector(gb[l])
			ws.PutVector(vb[l])
			ws.PutVector(mb[l])
			ws.PutMatrix(gw[l])
			ws.PutMatrix(vw[l])
			ws.PutMatrix(mw[l])
		}
	}()
	// ONE set of per-layer activation / pre-activation buffers, shared by
	// every sample: the forward pass fully overwrites them and the backward
	// pass consumes them before the next sample, so per-sample storage
	// (r copies) would be pure waste. acts[0] is repointed at the current
	// sample's input row each step.
	acts := make([][]float64, nLayers+1)
	pre := make([][]float64, nLayers)
	for l := 0; l < nLayers; l++ {
		pre[l] = ws.GetVector(sizes[l+1])
		acts[l+1] = ws.GetVector(sizes[l+1])
	}
	// Back-propagation delta buffers, one per layer width.
	deltas := make([][]float64, nLayers+1)
	for l := 0; l <= nLayers; l++ {
		deltas[l] = ws.GetVector(sizes[l])
	}
	// The sparse inline path's index lists: nz[l] holds the positions of
	// the nonzero inputs to layer l, and live the nonzero delta rows of one
	// layer at a time.
	nz := make([][]int32, nLayers)
	for l := 0; l < nLayers; l++ {
		nz[l] = ws.GetInt32(sizes[l])
	}
	live := ws.GetInt32(slices.Max(sizes))
	defer func() {
		ws.PutInt32(live)
		for l := nLayers - 1; l >= 0; l-- {
			ws.PutInt32(nz[l])
		}
		for l := nLayers; l >= 0; l-- {
			ws.PutVector(deltas[l])
		}
		for l := nLayers - 1; l >= 0; l-- {
			ws.PutVector(acts[l+1])
			ws.PutVector(pre[l])
		}
	}()

	// Large batches run each epoch's per-sample passes on the worker pool:
	// phase one stores every sample's hidden pre-activations, activations,
	// and deltas in its own matrix row (disjoint writes), phase two reduces
	// them into the gradients serially in the inline loop's exact
	// sample/layer/unit order — bit-identical to the inline path at every
	// worker count.
	useParallel := r >= mlpParallelMinRows && parallel.MaxWorkers() > 1
	var preM, actsM, deltasM []*mat.Dense
	if useParallel {
		preM = make([]*mat.Dense, nLayers)
		actsM = make([]*mat.Dense, nLayers)
		deltasM = make([]*mat.Dense, nLayers+1)
		for l := 1; l < nLayers; l++ {
			preM[l] = ws.GetMatrix(r, sizes[l])
			actsM[l] = ws.GetMatrix(r, sizes[l])
		}
		for l := 1; l <= nLayers; l++ {
			deltasM[l] = ws.GetMatrix(r, sizes[l])
		}
		defer func() {
			for l := nLayers; l >= 1; l-- {
				ws.PutMatrix(deltasM[l])
			}
			for l := nLayers - 1; l >= 1; l-- {
				ws.PutMatrix(actsM[l])
				ws.PutMatrix(preM[l])
			}
		}()
	}

	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		// Zero gradients.
		for l := 0; l < nLayers; l++ {
			d := gw[l].Data()
			for i := range d {
				d[i] = 0
			}
			for i := range gb[l] {
				gb[l][i] = 0
			}
		}
		if useParallel {
			parallel.ForEachBlock(r, mlpBlockRows, func(lo, hi int) error {
				m.batchPass(xs, ys, preM, actsM, deltasM, lo, hi, nLayers, r)
				return nil
			})
			for i := 0; i < r; i++ {
				for l := nLayers - 1; l >= 0; l-- {
					aPrev := xs.RawRow(i)
					if l > 0 {
						aPrev = actsM[l].RawRow(i)
					}
					dl := deltasM[l+1].RawRow(i)
					g := gw[l]
					for o := range dl {
						row := g.RawRow(o)
						d := dl[o]
						for j := range aPrev {
							row[j] += d * aPrev[j]
						}
						gb[l][o] += d
					}
				}
			}
			step++
			adamStep(m, mw, vw, mb, vb, gw, gb, lr, step, nLayers)
			continue
		}
		// Forward + backward, full batch: the sparse pass when it is exact
		// (see sparseSample), else the dense one.
		finite := allFinite(m.weights)
		for i := 0; i < r; i++ {
			acts[0] = xs.RawRow(i)
			if finite && m.sparseSample(acts, pre, deltas, nz, live, gw, gb, ys[i], r) {
				continue
			}
			a := acts[0]
			for l := 0; l < nLayers; l++ {
				z := pre[l]
				for k := range z {
					row := m.weights[l].RawRow(k)
					s := m.biases[l][k]
					for j, av := range a {
						s += row[j] * av
					}
					z[k] = s
				}
				out := acts[l+1]
				if l < nLayers-1 {
					for k, v := range z {
						if v > 0 {
							out[k] = v
						} else {
							out[k] = 0
						}
					}
				} else {
					copy(out, z) // linear output
				}
				a = out
			}
			diff := acts[nLayers][0] - ys[i]
			// Backward.
			delta := deltas[nLayers][:1]
			delta[0] = 2 * diff / float64(r)
			for l := nLayers - 1; l >= 0; l-- {
				aPrev := acts[l]
				g := gw[l]
				for o := range delta {
					row := g.RawRow(o)
					d := delta[o]
					for j := range aPrev {
						row[j] += d * aPrev[j]
					}
					gb[l][o] += d
				}
				if l == 0 {
					break
				}
				// Propagate through Wᵀ and the ReLU mask.
				prevDelta := deltas[l]
				for j := range prevDelta {
					prevDelta[j] = 0
				}
				for o := range delta {
					row := m.weights[l].RawRow(o)
					d := delta[o]
					for j := range prevDelta {
						prevDelta[j] += d * row[j]
					}
				}
				for j := range prevDelta {
					if pre[l-1][j] <= 0 {
						prevDelta[j] = 0
					}
				}
				delta = prevDelta
			}
		}
		// Adam update.
		step++
		adamStep(m, mw, vw, mb, vb, gw, gb, lr, step, nLayers)
	}
	m.fitted = true
	return nil
}

// testHookWeightsInit, when set, runs on the freshly initialized weights
// of every Fit. Tests use it to inject non-finite weights.
var testHookWeightsInit func(weights []*mat.Dense)

// allFinite reports whether every weight is finite.
func allFinite(weights []*mat.Dense) bool {
	for _, w := range weights {
		for _, v := range w.Data() {
			if !finite(v) {
				return false
			}
		}
	}
	return true
}

// finite reports whether v is neither ±Inf nor NaN.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// sparseSample runs one sample's forward and backward passes like the dense
// inline loop in Fit, but skips work whose result is exactly zero: inputs
// that are zero in the forward sums, delta rows that are zero, and units
// whose pre-activation is ≤ 0 (their activation is zero, and the ReLU mask
// zeroes their delta anyway). It takes four output units (forward) or
// four delta rows (backward) at a time, adding to each sum in the dense
// loop's order. It leaves the gradients bit-identical to the dense loop's.
//
// Why that is exact: every skipped term is a product with a zero factor,
// so while both factors are finite it is a signed zero. Adding ±0 leaves
// any accumulator unchanged except −0 (−0 + +0 = +0), and no accumulator
// here can be −0. Gradient sums and deltas start at +0, forward sums start
// at a bias, and biases start at +0. Under round-to-nearest, x + y is −0
// only if x and y both are, and Adam's b − u is −0 only if b is; so by
// induction none of them ever holds −0. A NaN accumulator stays NaN
// whether or not ±0 is added. The finite-operand premise is checked: Fit
// calls this only when every weight is finite (checked once per epoch),
// and it checks the sample's inputs, pre-activations, and deltas before
// it touches gw or gb. When any is not finite it returns false having
// written only the per-sample buffers (acts, pre, deltas, nz), and Fit
// reruns the sample with the dense loop.
func (m *MLP) sparseSample(acts, pre, deltas [][]float64, nz [][]int32, live []int32, gw []*mat.Dense, gb [][]float64, y float64, r int) bool {
	nLayers := len(m.weights)
	a := acts[0]
	idx := nz[0][:0]
	for j, v := range a {
		if !finite(v) {
			return false
		}
		if v != 0 {
			idx = append(idx, int32(j))
		}
	}
	nz[0] = idx

	// Forward: pre-activations over the nonzero inputs only.
	for l := 0; l < nLayers; l++ {
		w, b, z, idx := m.weights[l], m.biases[l], pre[l], nz[l]
		k := 0
		for ; k+4 <= len(z); k += 4 {
			r0, r1, r2, r3 := w.RawRow(k), w.RawRow(k+1), w.RawRow(k+2), w.RawRow(k+3)
			s0, s1, s2, s3 := b[k], b[k+1], b[k+2], b[k+3]
			for _, j := range idx {
				av := a[j]
				s0 += r0[j] * av
				s1 += r1[j] * av
				s2 += r2[j] * av
				s3 += r3[j] * av
			}
			z[k], z[k+1], z[k+2], z[k+3] = s0, s1, s2, s3
		}
		for ; k < len(z); k++ {
			row, s := w.RawRow(k), b[k]
			for _, j := range idx {
				s += row[j] * a[j]
			}
			z[k] = s
		}
		out := acts[l+1]
		if l == nLayers-1 {
			copy(out, z) // linear output; a non-finite one fails the delta check
			break
		}
		next := nz[l+1][:0]
		for k, v := range z {
			if !finite(v) {
				return false
			}
			if v > 0 {
				out[k] = v
				next = append(next, int32(k))
			} else {
				out[k] = 0
			}
		}
		nz[l+1] = next
		a = out
	}

	// Backward, first the deltas: layer l's delta reaches only the units
	// of layer l-1 with a positive pre-activation (nz[l]); the rest stay
	// +0, which is what the dense loop's mask writes.
	delta := deltas[nLayers][:1]
	delta[0] = 2 * (acts[nLayers][0] - y) / float64(r)
	if !finite(delta[0]) {
		return false
	}
	for l := nLayers - 1; l >= 1; l-- {
		prevDelta := deltas[l]
		for j := range prevDelta {
			prevDelta[j] = 0
		}
		w, idx, rows := m.weights[l], nz[l], nonzero(live, delta)
		q := 0
		for ; q+4 <= len(rows); q += 4 {
			o0, o1, o2, o3 := rows[q], rows[q+1], rows[q+2], rows[q+3]
			d0, d1, d2, d3 := delta[o0], delta[o1], delta[o2], delta[o3]
			r0, r1, r2, r3 := w.RawRow(int(o0)), w.RawRow(int(o1)), w.RawRow(int(o2)), w.RawRow(int(o3))
			for _, j := range idx {
				p := prevDelta[j]
				p += d0 * r0[j]
				p += d1 * r1[j]
				p += d2 * r2[j]
				p += d3 * r3[j]
				prevDelta[j] = p
			}
		}
		for ; q < len(rows); q++ {
			d, row := delta[rows[q]], w.RawRow(int(rows[q]))
			for _, j := range idx {
				prevDelta[j] += d * row[j]
			}
		}
		for _, j := range idx {
			if !finite(prevDelta[j]) {
				return false
			}
		}
		delta = prevDelta
	}

	// Then the gradients: every accumulator takes one term per sample, so
	// visiting the layers after all deltas exist changes no sum.
	for l := nLayers - 1; l >= 0; l-- {
		aPrev, idx, g, b := acts[l], nz[l], gw[l], gb[l]
		delta := deltas[l+1]
		rows := nonzero(live, delta)
		q := 0
		for ; q+4 <= len(rows); q += 4 {
			o0, o1, o2, o3 := rows[q], rows[q+1], rows[q+2], rows[q+3]
			d0, d1, d2, d3 := delta[o0], delta[o1], delta[o2], delta[o3]
			g0, g1, g2, g3 := g.RawRow(int(o0)), g.RawRow(int(o1)), g.RawRow(int(o2)), g.RawRow(int(o3))
			for _, j := range idx {
				av := aPrev[j]
				g0[j] += d0 * av
				g1[j] += d1 * av
				g2[j] += d2 * av
				g3[j] += d3 * av
			}
			b[o0] += d0
			b[o1] += d1
			b[o2] += d2
			b[o3] += d3
		}
		for ; q < len(rows); q++ {
			o := rows[q]
			d, row := delta[o], g.RawRow(int(o))
			for _, j := range idx {
				row[j] += d * aPrev[j]
			}
			b[o] += d
		}
	}
	return true
}

// nonzero fills buf with the positions of v's nonzero entries, ascending.
func nonzero(buf []int32, v []float64) []int32 {
	buf = buf[:0]
	for i, x := range v {
		if x != 0 {
			buf = append(buf, int32(i))
		}
	}
	return buf
}

const adamBeta1, adamBeta2, adamEps = 0.9, 0.999, 1e-8

// adamStep applies one full-batch Adam update to the weights and biases.
func adamStep(m *MLP, mw, vw []*mat.Dense, mb, vb [][]float64, gw []*mat.Dense, gb [][]float64, lr float64, step, nLayers int) {
	bc1 := 1 - math.Pow(adamBeta1, float64(step))
	bc2 := 1 - math.Pow(adamBeta2, float64(step))
	for l := 0; l < nLayers; l++ {
		wd, gd := m.weights[l].Data(), gw[l].Data()
		md, vd := mw[l].Data(), vw[l].Data()
		for k := range wd {
			md[k] = adamBeta1*md[k] + (1-adamBeta1)*gd[k]
			vd[k] = adamBeta2*vd[k] + (1-adamBeta2)*gd[k]*gd[k]
			wd[k] -= lr * (md[k] / bc1) / (math.Sqrt(vd[k]/bc2) + adamEps)
		}
		for k := range m.biases[l] {
			mb[l][k] = adamBeta1*mb[l][k] + (1-adamBeta1)*gb[l][k]
			vb[l][k] = adamBeta2*vb[l][k] + (1-adamBeta2)*gb[l][k]*gb[l][k]
			m.biases[l][k] -= lr * (mb[l][k] / bc1) / (math.Sqrt(vb[l][k]/bc2) + adamEps)
		}
	}
}

// batchPass runs the forward and backward passes of samples [lo, hi)
// into their private rows of preM/actsM/deltasM. Rows are disjoint, so
// blocks may run concurrently in any order; each sample's row values match
// the inline path's shared-buffer results exactly (including the pre ≤ 0
// ReLU mask test, kept on stored pre-activations so even non-finite
// values mask identically).
func (m *MLP) batchPass(xs *mat.Dense, ys []float64, preM, actsM, deltasM []*mat.Dense, lo, hi, nLayers, r int) {
	for i := lo; i < hi; i++ {
		a := xs.RawRow(i)
		for l := 0; l < nLayers-1; l++ {
			z := preM[l+1].RawRow(i)
			out := actsM[l+1].RawRow(i)
			for k := range z {
				row := m.weights[l].RawRow(k)
				s := m.biases[l][k]
				for j, av := range a {
					s += row[j] * av
				}
				z[k] = s
				if s > 0 {
					out[k] = s
				} else {
					out[k] = 0
				}
			}
			a = out
		}
		// Linear output layer (width 1) and the loss gradient.
		row := m.weights[nLayers-1].RawRow(0)
		s := m.biases[nLayers-1][0]
		for j, av := range a {
			s += row[j] * av
		}
		delta := deltasM[nLayers].RawRow(i)
		delta[0] = 2 * (s - ys[i]) / float64(r)
		for l := nLayers - 1; l >= 1; l-- {
			prevDelta := deltasM[l].RawRow(i)
			for j := range prevDelta {
				prevDelta[j] = 0
			}
			for o := range delta {
				wrow := m.weights[l].RawRow(o)
				d := delta[o]
				for j := range prevDelta {
					prevDelta[j] += d * wrow[j]
				}
			}
			z := preM[l].RawRow(i)
			for j := range prevDelta {
				if z[j] <= 0 {
					prevDelta[j] = 0
				}
			}
			delta = prevDelta
		}
	}
}

func meanStd(v []float64) (mean, std float64) {
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(v)))
	if std < 1e-12 {
		std = 1
	}
	return mean, std
}

// Predict runs a forward pass for x.
func (m *MLP) Predict(x []float64) float64 {
	if !m.fitted {
		panic(errors.New("nnet: model is not fitted"))
	}
	a := append([]float64(nil), x...)
	if m.std != nil {
		a = m.std.TransformRow(x)
	}
	n := len(m.weights)
	for l := 0; l < n; l++ {
		z := m.weights[l].MulVec(a)
		for k := range z {
			z[k] += m.biases[l][k]
		}
		if l < n-1 {
			for k := range z {
				if z[k] < 0 {
					z[k] = 0
				}
			}
		}
		a = z
	}
	return a[0]*m.yScale + m.yMean
}
