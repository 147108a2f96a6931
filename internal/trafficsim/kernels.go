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
// goes to math.Pow. The speed kernel runs the split path's three steps,
// Log, Exp and times, each for four roads at once.
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

// split reports whether x^g takes the split path,
// times(Exp(yf·Log(x)), x); math.Pow computes it otherwise.
func (p power) split(x float64) bool {
	return p.yi != 0 && x != 1 && x >= 0x1p-500 && x <= 0x1p500
}

// times returns a·x^yi, the split path's last step.
func (p power) times(a, x float64) float64 {
	if p.yi == 1 {
		return a * x
	}
	return a * (x * x)
}

// lanes is how many roads the speed kernel evaluates together.
const lanes = 4

// speedsOf writes the current speed of roads[k] to out[k]; out must be as
// long as roads. It runs the kernel on the roads four at a time, padding
// the last group with copies of its first road.
func (s *Simulator) speedsOf(roads []roadnet.RoadID, out []float64) {
	for k := 0; k < len(roads); k += lanes {
		var ids [lanes]roadnet.RoadID
		m := copy(ids[:], roads[k:])
		for j := m; j < lanes; j++ {
			ids[j] = ids[0]
		}
		speeds := s.speed4(&ids)
		copy(out[k:k+m], speeds[:m])
	}
}

// speed4 evaluates four roads' speeds for the current slot. A road's speed
// is a chain of three dependent calls: its response power's Log, then the
// power's Exp, then the Exp of the response. The kernel makes each call
// for all four roads before the next, so the four chains overlap in the
// pipeline instead of running one after another; each road's arithmetic,
// and its order, is what one road alone would run.
func (s *Simulator) speed4(ids *[lanes]roadnet.RoadID) (speeds [lanes]float64) {
	var f [lanes]float64
	for j, id := range ids {
		f[j] = s.field[id] + s.classFactor[s.class[id]]
	}
	resp := s.response4(ids, &f)
	var e, noise [lanes]float64
	for j, id := range ids {
		e[j] = math.Exp(resp[j])
		noise[j] = math.Exp(s.noise[id] * s.cfg.NoiseScale)
	}
	for j, id := range ids {
		class := s.class[id]
		speed := s.free[id] * s.diurnal[class] * e[j] * s.mult[id] * noise[j]
		// Physical ceiling and floor: free-flowing traffic exceeds the
		// nominal free-flow speed only slightly, and jams crawl rather
		// than stopping forever.
		if ceiling := class.FreeFlowSpeed() * 1.25; speed > ceiling {
			speed = ceiling
		}
		if floor := 1.5; speed < floor { // ≈ 5.4 km/h
			speed = floor
		}
		speeds[j] = speed
	}
	return speeds
}

// response4 maps the shared congestion signal f[j] to road ids[j]'s
// log-speed effect: sign-preserving (trend agreement intact) but with
// per-road amplitude and curvature, so magnitudes decorrelate across roads
// even where trends agree. Roads off their power's split path take
// math.Pow.
func (s *Simulator) response4(ids *[lanes]roadnet.RoadID, f *[lanes]float64) (resp [lanes]float64) {
	sigma := s.cfg.TrendScale
	if sigma <= 0 {
		for j, id := range ids {
			resp[j] = f[j] * s.sens[id]
		}
		return resp
	}
	var x, pow [lanes]float64
	var split [lanes]bool
	for j, id := range ids {
		x[j] = math.Abs(f[j]) / sigma
		split[j] = s.gamma[id].split(x[j])
	}
	for j := range ids {
		if split[j] {
			pow[j] = math.Log(x[j])
		}
	}
	for j, id := range ids {
		if split[j] {
			pow[j] = math.Exp(s.gamma[id].yf * pow[j])
		}
	}
	for j, id := range ids {
		g := s.gamma[id]
		if split[j] {
			pow[j] = g.times(pow[j], x[j])
		} else {
			pow[j] = math.Pow(x[j], g.g)
		}
		resp[j] = math.Copysign(pow[j]*sigma*s.sens[id], f[j])
	}
	return resp
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

// sweep writes one diffusion pass over src to dst in each of lookAhead
// lanes: road r's value in lane l sits at r*lookAhead+l. Each lane gets
// every road's value plus the weighted values of its adjacent roads, over
// 1 + Σw. The sweep loads each neighbour index and weight once for all
// lanes, and the lanes' sums are independent. They are eight variables
// rather than an array so that they stay in registers: an array of them
// spilled to memory and took twice as long.
func (st *stencil) sweep(dst, src []float64) {
	start, nbr, w := st.start, st.nbr, st.w
	for r, wsum := range st.wsum {
		v := (*[lookAhead]float64)(src[r*lookAhead:])
		s0, s1, s2, s3, s4, s5, s6, s7 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
		nbs := nbr[start[r]:start[r+1]]
		ws := w[start[r]:start[r+1]]
		ws = ws[:len(nbs)]
		for k, nb := range nbs {
			wk := ws[k]
			u := (*[lookAhead]float64)(src[int(nb)*lookAhead:])
			s0 += wk * u[0]
			s1 += wk * u[1]
			s2 += wk * u[2]
			s3 += wk * u[3]
			s4 += wk * u[4]
			s5 += wk * u[5]
			s6 += wk * u[6]
			s7 += wk * u[7]
		}
		out := (*[lookAhead]float64)(dst[r*lookAhead:])
		out[0], out[1], out[2], out[3] = s0/wsum, s1/wsum, s2/wsum, s3/wsum
		out[4], out[5], out[6], out[7] = s4/wsum, s5/wsum, s6/wsum, s7/wsum
	}
}
