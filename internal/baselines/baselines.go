// Package baselines implements the comparison methods the paper's system is
// evaluated against. All baselines receive exactly the same inputs as the
// trend+HLM estimator — the historical database and the crowdsourced seed
// speeds — and differ only in how they turn them into network-wide
// estimates:
//
//   - Static: the historical mean (ignores seeds entirely).
//   - GlobalScale: one network-wide congestion factor from the seeds.
//   - KNN: each road copies the average relative speed of its k nearest
//     seeds (spatial nearest-neighbour interpolation).
//   - IDW: inverse-distance-weighted interpolation over all seeds in range.
//   - LabelProp: harmonic interpolation — seed relative speeds are clamped
//     and iteratively averaged over the road-adjacency graph.
//
// Like the main estimator, baselines work in relative-speed space
// (rel = speed / historical mean) so they all benefit equally from history.
package baselines

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/history"
	"repro/internal/roadnet"
)

// Request carries the shared estimation inputs.
type Request struct {
	Net  *roadnet.Network
	DB   *history.DB
	Slot int
	// SeedSpeeds maps seed roads to crowdsourced absolute speeds (m/s).
	SeedSpeeds map[roadnet.RoadID]float64
}

// seed is one seed road with a usable historical mean, and its rel.
type seed struct {
	road roadnet.RoadID
	rel  float64
}

// validate checks the request and returns its seeds with a usable historical
// mean in ascending road order. Every method reads them in that order, so no
// sum depends on the seed map's iteration order.
func (r *Request) validate() ([]seed, error) {
	if r.Net == nil || r.DB == nil {
		return nil, fmt.Errorf("baselines: request needs Net and DB")
	}
	if r.Net.NumRoads() != r.DB.NumRoads() {
		return nil, fmt.Errorf("baselines: network has %d roads, history %d", r.Net.NumRoads(), r.DB.NumRoads())
	}
	seeds := make([]seed, 0, len(r.SeedSpeeds))
	for road, speed := range r.SeedSpeeds {
		if int(road) < 0 || int(road) >= r.Net.NumRoads() {
			return nil, fmt.Errorf("baselines: seed road %d out of range", road)
		}
		if speed <= 0 || math.IsNaN(speed) {
			return nil, fmt.Errorf("baselines: invalid seed speed %v on road %d", speed, road)
		}
		if mean, ok := r.DB.Mean(road, r.Slot); ok && mean > 0 {
			seeds = append(seeds, seed{road: road, rel: speed / mean})
		}
	}
	slices.SortFunc(seeds, func(a, b seed) int { return cmp.Compare(a.road, b.road) })
	return seeds, nil
}

// Method is a speed-estimation baseline.
type Method interface {
	// Estimate returns per-road absolute speed estimates (0 for roads
	// without history).
	Estimate(req *Request) ([]float64, error)
	// Name identifies the method in experiment output.
	Name() string
}

// speedsFromRels converts relative estimates to absolute speeds, passing
// seed speeds through exactly.
func speedsFromRels(req *Request, rels []float64) []float64 {
	out := make([]float64, len(rels))
	for r := range rels {
		id := roadnet.RoadID(r)
		if s, isSeed := req.SeedSpeeds[id]; isSeed {
			out[r] = s
			continue
		}
		if mean, ok := req.DB.Mean(id, req.Slot); ok {
			out[r] = rels[r] * mean
		}
	}
	return out
}

// Static estimates every road at its historical mean.
type Static struct{}

// Name implements Method.
func (Static) Name() string { return "static" }

// Estimate implements Method.
func (Static) Estimate(req *Request) ([]float64, error) {
	if _, err := req.validate(); err != nil {
		return nil, err
	}
	rels := make([]float64, req.Net.NumRoads())
	for i := range rels {
		rels[i] = 1
	}
	return speedsFromRels(req, rels), nil
}

// GlobalScale applies the seeds' mean relative speed to the whole network:
// a single city-wide congestion factor.
type GlobalScale struct{}

// Name implements Method.
func (GlobalScale) Name() string { return "globalscale" }

// Estimate implements Method.
func (GlobalScale) Estimate(req *Request) ([]float64, error) {
	seeds, err := req.validate()
	if err != nil {
		return nil, err
	}
	factor := 1.0
	if len(seeds) > 0 {
		var sum float64
		for _, s := range seeds {
			sum += s.rel
		}
		factor = sum / float64(len(seeds))
	}
	rels := make([]float64, req.Net.NumRoads())
	for i := range rels {
		rels[i] = factor
	}
	return speedsFromRels(req, rels), nil
}

// KNN interpolates each road from its K nearest seed roads by midpoint
// distance, weighting them equally.
type KNN struct {
	// K is the neighbour count (default 3).
	K int
}

// Name implements Method.
func (KNN) Name() string { return "knn" }

// Estimate implements Method.
func (k KNN) Estimate(req *Request) ([]float64, error) {
	seeds, err := req.validate()
	if err != nil {
		return nil, err
	}
	kk := k.K
	if kk <= 0 {
		kk = 3
	}
	mids := midpoints(req.Net)
	n := req.Net.NumRoads()
	rels := make([]float64, n)
	dists := make([]float64, len(seeds))
	idx := make([]int, len(seeds))
	for r := 0; r < n; r++ {
		if len(seeds) == 0 {
			rels[r] = 1
			continue
		}
		for i, s := range seeds {
			dists[i] = mids[r].Dist(mids[s.road])
			idx[i] = i
		}
		// Seeds are in ascending road order, so a distance tie goes to the
		// lower road ID.
		slices.SortFunc(idx, func(a, b int) int { return cmp.Or(cmp.Compare(dists[a], dists[b]), cmp.Compare(a, b)) })
		top := kk
		if top > len(seeds) {
			top = len(seeds)
		}
		var sum float64
		for i := 0; i < top; i++ {
			sum += seeds[idx[i]].rel
		}
		rels[r] = sum / float64(top)
	}
	return speedsFromRels(req, rels), nil
}

// IDW interpolates each road from every seed within MaxRadius, weighted by
// inverse distance to the power Power.
type IDW struct {
	// Power is the distance exponent (default 2).
	Power float64
	// MaxRadius bounds seed influence in metres (default 3000).
	MaxRadius float64
}

// Name implements Method.
func (IDW) Name() string { return "idw" }

// Estimate implements Method.
func (w IDW) Estimate(req *Request) ([]float64, error) {
	seeds, err := req.validate()
	if err != nil {
		return nil, err
	}
	power := w.Power
	if power == 0 {
		power = 2
	}
	radius := w.MaxRadius
	if radius == 0 {
		radius = 3000
	}
	mids := midpoints(req.Net)
	n := req.Net.NumRoads()
	rels := make([]float64, n)
	for r := 0; r < n; r++ {
		var wsum, vsum float64
		for _, s := range seeds {
			d := mids[r].Dist(mids[s.road])
			if d > radius {
				continue
			}
			if d < 1 {
				d = 1
			}
			wt := 1 / math.Pow(d, power)
			wsum += wt
			vsum += wt * s.rel
		}
		if wsum > 0 {
			rels[r] = vsum / wsum
		} else {
			rels[r] = 1 // no seed in range: historical mean
		}
	}
	return speedsFromRels(req, rels), nil
}

// LabelProp clamps seed relative speeds and repeatedly averages every other
// road with its adjacency neighbours — the harmonic-function interpolation
// classic for graph-based semi-supervised regression.
type LabelProp struct {
	// Iterations is the number of averaging sweeps (default 30).
	Iterations int
	// Retention blends each road's previous value into the update, keeping
	// distant roads anchored to the historical mean (default 0.15).
	Retention float64
}

// Name implements Method.
func (LabelProp) Name() string { return "labelprop" }

// Estimate implements Method.
func (lp LabelProp) Estimate(req *Request) ([]float64, error) {
	seeds, err := req.validate()
	if err != nil {
		return nil, err
	}
	iters := lp.Iterations
	if iters <= 0 {
		iters = 30
	}
	retention := lp.Retention
	if retention == 0 {
		retention = 0.15
	}
	n := req.Net.NumRoads()
	rels := make([]float64, n)
	next := make([]float64, n)
	isSeed := make([]bool, n)
	for i := range rels {
		rels[i] = 1
	}
	for _, s := range seeds {
		rels[s.road], isSeed[s.road] = s.rel, true
	}
	for it := 0; it < iters; it++ {
		for r := 0; r < n; r++ {
			if isSeed[r] {
				next[r] = rels[r]
				continue
			}
			adj := req.Net.Adjacent(roadnet.RoadID(r))
			if len(adj) == 0 {
				next[r] = rels[r]
				continue
			}
			var sum float64
			for _, nb := range adj {
				sum += rels[nb]
			}
			avg := sum / float64(len(adj))
			next[r] = retention*1.0 + (1-retention)*avg
		}
		rels, next = next, rels
	}
	return speedsFromRels(req, rels), nil
}

// midpoints returns the geometric midpoint of every road.
func midpoints(net *roadnet.Network) []geo.Point {
	out := make([]geo.Point, net.NumRoads())
	for i := range out {
		r := net.Road(roadnet.RoadID(i))
		out[i] = r.Geometry.At(r.Length() / 2)
	}
	return out
}
