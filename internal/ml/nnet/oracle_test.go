package nnet

import (
	"math"
	"math/rand/v2"
	"testing"

	"wpred/internal/mat"
	"wpred/internal/ml"
)

// fitDense is the oracle for Fit's inline path: the dense per-sample loop
// as it stood before Fit learned to skip exactly-zero work. Every
// forward sum runs over every input, every delta row and column feeds the
// gradients, and the ReLU mask is applied after the full propagation. It
// shares weight initialization (including testHookWeightsInit), the
// standardization, and the Adam step with Fit, so any bit of difference
// in the fitted model comes from the loop itself.
func fitDense(m *MLP, X *mat.Dense, y []float64) {
	r, c := X.Dims()
	hidden, epochs, lr := m.params()
	xs := X
	ys := make([]float64, r)
	if m.Standardize {
		m.std = ml.FitStandardizer(X)
		xs = m.std.TransformInto(mat.New(r, c), X)
		m.yMean, m.yScale = meanStd(y)
		for i, v := range y {
			ys[i] = (v - m.yMean) / m.yScale
		}
	} else {
		m.std = nil
		m.yMean, m.yScale = 0, 1
		copy(ys, y)
	}
	sizes := append(append([]int{c}, hidden...), 1)
	nLayers := len(sizes) - 1
	rng := rand.New(rand.NewPCG(m.Seed, m.Seed^0x5eed))
	m.weights = make([]*mat.Dense, nLayers)
	m.biases = make([][]float64, nLayers)
	for l := 0; l < nLayers; l++ {
		in, out := sizes[l], sizes[l+1]
		m.weights[l] = mat.New(out, in)
		scale := math.Sqrt(2 / float64(in))
		for i := 0; i < out; i++ {
			for j := 0; j < in; j++ {
				m.weights[l].Set(i, j, rng.NormFloat64()*scale)
			}
		}
		m.biases[l] = make([]float64, out)
	}
	if testHookWeightsInit != nil {
		testHookWeightsInit(m.weights)
	}
	mw, vw, gw := make([]*mat.Dense, nLayers), make([]*mat.Dense, nLayers), make([]*mat.Dense, nLayers)
	mb, vb, gb := make([][]float64, nLayers), make([][]float64, nLayers), make([][]float64, nLayers)
	acts := make([][]float64, nLayers+1)
	pre := make([][]float64, nLayers)
	deltas := make([][]float64, nLayers+1)
	for l := 0; l < nLayers; l++ {
		o, in := sizes[l+1], sizes[l]
		mw[l], vw[l], gw[l] = mat.New(o, in), mat.New(o, in), mat.New(o, in)
		mb[l], vb[l], gb[l] = make([]float64, o), make([]float64, o), make([]float64, o)
		pre[l] = make([]float64, o)
		acts[l+1] = make([]float64, o)
	}
	for l := 0; l <= nLayers; l++ {
		deltas[l] = make([]float64, sizes[l])
	}

	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		for l := 0; l < nLayers; l++ {
			d := gw[l].Data()
			for i := range d {
				d[i] = 0
			}
			for i := range gb[l] {
				gb[l][i] = 0
			}
		}
		for i := 0; i < r; i++ {
			acts[0] = xs.RawRow(i)
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
					copy(out, z)
				}
				a = out
			}
			diff := acts[nLayers][0] - ys[i]
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
		step++
		adamStep(m, mw, vw, mb, vb, gw, gb, lr, step, nLayers)
	}
	m.fitted = true
}

// sameBits reports whether two floats are the same bits, treating any two
// NaNs as equal (their payloads are not part of the contract).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestFitMatchesDenseOracle fits random shapes with Fit and with the
// dense oracle and requires bit-identical weights, biases, and
// predictions. The cases cover Standardize on and off, inputs with zero
// entries and all-zero columns, widths that are not multiples of four,
// non-finite inputs and targets, non-finite initial weights, and inputs
// and targets large enough to overflow the forward sums and the deltas.
func TestFitMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 0xfeed))
	type inject int
	const (
		none inject = iota
		nanInput
		infInput
		infTarget
		hugeTarget
		infWeight
		nanWeight
		hugeInput
	)
	cases := 0
	for trial := 0; trial < 64; trial++ {
		rows, cols := 1+rng.IntN(40), 1+rng.IntN(6)
		hidden := make([]int, 1+rng.IntN(4))
		for i := range hidden {
			hidden[i] = 1 + rng.IntN(13)
		}
		x := mat.New(rows, cols)
		y := make([]float64, rows)
		zeroCol := rng.IntN(cols + 1) // cols means "no all-zero column"
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if j != zeroCol && rng.IntN(4) != 0 {
					x.Set(i, j, rng.NormFloat64()*math.Pow(10, float64(rng.IntN(4))))
				}
			}
			y[i] = 3*x.At(i, 0) + rng.NormFloat64()
		}
		kind := inject(trial % 8)
		switch kind {
		case nanInput:
			x.Set(rng.IntN(rows), rng.IntN(cols), math.NaN())
		case infInput:
			x.Set(rng.IntN(rows), rng.IntN(cols), math.Inf(1-2*rng.IntN(2)))
		case infTarget:
			y[rng.IntN(rows)] = math.Inf(1)
		case hugeTarget:
			y[rng.IntN(rows)] = 1.7e308
		case hugeInput:
			i := rng.IntN(rows)
			for j := 0; j < cols; j++ {
				x.Set(i, j, 1.7e308)
			}
		}
		for _, standardize := range []bool{false, true} {
			cases++
			testHookWeightsInit = nil
			if kind == infWeight || kind == nanWeight {
				l, seed := rng.IntN(len(hidden)+1), rng.Uint64()
				v := math.Inf(-1)
				if kind == nanWeight {
					v = math.NaN()
				}
				testHookWeightsInit = func(w []*mat.Dense) {
					pick := rand.New(rand.NewPCG(seed, 1))
					o, in := w[l].Dims()
					w[l].Set(pick.IntN(o), pick.IntN(in), v)
				}
			}
			cfg := MLP{Hidden: hidden, Epochs: 1 + rng.IntN(30), Standardize: standardize, Seed: rng.Uint64()}
			got, want := cfg, cfg
			if err := got.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			fitDense(&want, x, y)
			compareModels(t, trial, standardize, &got, &want, x)
		}
	}
	testHookWeightsInit = nil
	if cases != 128 {
		t.Fatalf("ran %d cases", cases)
	}

	// One sample whose loss gradient is finite but whose deltas overflow
	// on the way down, into layers whose inputs include dead units.
	x := mat.New(1, 1)
	x.Set(0, 0, 1)
	y := []float64{8.9e307}
	for seed := uint64(0); seed < 8; seed++ {
		cfg := MLP{Hidden: []int{8, 8, 8}, Epochs: 1, Seed: seed}
		got, want := cfg, cfg
		if err := got.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		fitDense(&want, x, y)
		compareModels(t, -1, false, &got, &want, x)
	}
}

// compareModels requires bit-identical parameters and predictions.
func compareModels(t *testing.T, trial int, standardize bool, got, want *MLP, x *mat.Dense) {
	t.Helper()
	for l := range want.weights {
		gw, ww := got.weights[l].Data(), want.weights[l].Data()
		for k := range ww {
			if !sameBits(gw[k], ww[k]) {
				t.Fatalf("trial %d standardize=%v: layer %d weight %d = %v, dense oracle %v", trial, standardize, l, k, gw[k], ww[k])
			}
		}
		for k := range want.biases[l] {
			if !sameBits(got.biases[l][k], want.biases[l][k]) {
				t.Fatalf("trial %d standardize=%v: layer %d bias %d = %v, dense oracle %v", trial, standardize, l, k, got.biases[l][k], want.biases[l][k])
			}
		}
	}
	r, _ := x.Dims()
	for i := 0; i < r; i++ {
		if g, w := got.Predict(x.RawRow(i)), want.Predict(x.RawRow(i)); !sameBits(g, w) {
			t.Fatalf("trial %d standardize=%v: prediction %d = %v, dense oracle %v", trial, standardize, i, g, w)
		}
	}
}
