package trafficsim

import (
	"math"

	"repro/internal/roadnet"
)

// power computes x^g for one fixed exponent g, as math.Pow(x, g) does and
// bit for bit, without math.Pow's per-call special cases and exponent
// loop. splitPower splits g the way math.Pow does, g = yi + yf with yf in
// [-0.5, 0.5], and math.Pow then returns Exp(yf·Log(x)) · x^yi, building
// x^yi from x's Frexp mantissa and applying the exponent with Ldexp. For
// yi ∈ {1, 2} and x, x² and the result all normal, scaling by a power of two
// is exact, so a·x and a·(x·x) round exactly as math.Pow's mantissa
// products do. Exponents in (0.5, 2), the simulator's range, give yi ∈ {1,
// 2}; x in [2⁻⁵⁰⁰, 2⁵⁰⁰] keeps every intermediate normal. Everything else
// goes to math.Pow.
type power struct {
	g  float64 // the exponent
	yf float64 // g's fractional part as math.Pow splits it
	yi int8    // g's integer part as math.Pow splits it; 0 sends every x to math.Pow
}

// splitPower prepares x^g. Integer exponents, and exponents outside (0.5,
// 2), keep math.Pow's own paths.
func splitPower(g float64) power {
	p := power{g: g}
	if !(g > 0.5 && g < 2) {
		return p
	}
	yi, yf := math.Modf(g)
	if yf == 0 {
		return p
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	p.yf, p.yi = yf, int8(yi)
	return p
}

// of returns x^g, bit-identical to math.Pow(x, g).
func (p power) of(x float64) float64 {
	if p.yi == 0 || x == 1 || !(x >= 0x1p-500 && x <= 0x1p500) {
		return math.Pow(x, p.g)
	}
	a := math.Exp(p.yf * math.Log(x))
	if p.yi == 1 {
		return a * x
	}
	return a * (x * x)
}

// stencil is the diffusion pass in flat form: each road's adjacent roads
// and their weights in adjacency order, one road after another.
type stencil struct {
	start []int32 // road r's entries are nbr[start[r]:start[r+1]], w likewise
	nbr   []int32
	w     []float64
	wsum  []float64 // per road: 1 + Σw, summed in adjacency order
}

// newStencil flattens the per-road weights buildDiffusionWeights returns.
func newStencil(net *roadnet.Network, weights [][]float64) stencil {
	n := net.NumRoads()
	st := stencil{start: make([]int32, n+1), wsum: make([]float64, n)}
	for r, ws := range weights {
		wsum := 1.0
		for k, nb := range net.Adjacent(roadnet.RoadID(r)) {
			st.nbr, st.w = append(st.nbr, int32(nb)), append(st.w, ws[k])
			wsum += ws[k]
		}
		st.wsum[r] = wsum
		st.start[r+1] = int32(len(st.nbr))
	}
	return st
}

// sweep writes one diffusion pass over src to dst: every road's value plus
// the weighted values of its adjacent roads, over 1 + Σw.
func (st *stencil) sweep(dst, src []float64) {
	for r, wsum := range st.wsum {
		sum := src[r]
		nbs := st.nbr[st.start[r]:st.start[r+1]]
		ws := st.w[st.start[r]:st.start[r+1]]
		for k, nb := range nbs {
			sum += ws[k] * src[nb]
		}
		dst[r] = sum / wsum
	}
}
