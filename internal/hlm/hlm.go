// Package hlm implements the paper's step-2 model: a hierarchical linear
// model that converts inferred trends into speed estimates.
//
// Speeds are modelled in *relative* form, rel = speed / historical-mean, the
// same normalisation the trend is defined against. The model is hierarchical
// in two senses:
//
//   - Per road, estimates combine a hierarchy of predictors: one pairwise
//     linear regression per correlated neighbour (trained on the pair's
//     co-observed history, conditioned on the road's trend) plus the
//     trend-conditioned historical prior; predictions are blended by
//     inverse residual variance, so precise neighbours dominate and the
//     prior anchors roads with weak neighbourhoods.
//   - Across the network, roads are estimated in breadth-first order from
//     the seed roads (whose rels are known exactly from crowdsourcing), so
//     each road regresses on neighbour values that are already estimates —
//     observed magnitudes propagate outward with learned shrinkage.
//
// The fallback chain is pairwise regressions → trend-conditioned historical
// rel → 1.0 (the historical mean).
package hlm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/roadnet"
)

// Config parameterises training.
type Config struct {
	// MaxNeighbors caps the number of correlated neighbours with pairwise
	// regressions per road.
	MaxNeighbors int
	// MinSamples is the minimum number of co-observed history slots for a
	// pairwise regression to be trusted.
	MinSamples int
	// Lambda is the ridge penalty.
	Lambda float64
	// Levels optionally adds pooled predictors. Each level assigns every
	// road to a group (len must equal the number of roads); the road then
	// gains one regression of its rel on the mean rel-deviation of the
	// other observed roads in its group. Typical levels: road class (all
	// expressways fill up together), local area (congestion is spatially
	// smooth), the whole city (global demand). nil disables pooling.
	Levels [][]int
}

// DefaultConfig returns training settings used by the experiments.
func DefaultConfig() Config {
	return Config{MaxNeighbors: 5, MinSamples: 30, Lambda: 0.1}
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if c.MaxNeighbors < 1 {
		return fmt.Errorf("hlm: MaxNeighbors must be ≥ 1, got %d", c.MaxNeighbors)
	}
	if c.MinSamples < 2 {
		return fmt.Errorf("hlm: MinSamples must be ≥ 2, got %d", c.MinSamples)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("hlm: Lambda must be ≥ 0, got %v", c.Lambda)
	}
	return nil
}

// pairModel holds the trend-conditioned regressions predicting a road's rel
// from one neighbour's rel.
type pairModel struct {
	up, down *linalg.RidgeModel // may be nil when one trend class is scarce
	pooled   *linalg.RidgeModel
}

// pick returns the regression for the trend, falling back to pooled.
func (pm *pairModel) pick(up bool) *linalg.RidgeModel {
	if up && pm.up != nil {
		return pm.up
	}
	if !up && pm.down != nil {
		return pm.down
	}
	return pm.pooled
}

// predict evaluates the pair at x. With a trend marginal p available it
// blends the up and down regressions by p — committing to the harder bit
// would amplify step-1 mistakes — and returns the blended prediction with
// its combination weight (inverse residual variance). ok is false when no
// usable regression exists.
func (pm *pairModel) predict(x, p float64, hardUp, soft, trendFree bool) (pred, weight float64, ok bool) {
	evalReg := func(reg *linalg.RidgeModel) (float64, float64, bool) {
		if reg == nil {
			return 0, 0, false
		}
		v, err := reg.Predict1(x)
		if err != nil {
			return 0, 0, false
		}
		return v, 1 / (reg.RMSE*reg.RMSE + 1e-4), true
	}
	if trendFree {
		return evalReg(pm.pooled)
	}
	if !soft {
		return evalReg(pm.pick(hardUp))
	}
	upPred, upW, upOK := evalReg(pm.pick(true))
	downPred, downW, downOK := evalReg(pm.pick(false))
	switch {
	case upOK && downOK:
		return p*upPred + (1-p)*downPred, p*upW + (1-p)*downW, true
	case upOK:
		return upPred, upW, true
	case downOK:
		return downPred, downW, true
	default:
		return 0, 0, false
	}
}

// roadModel holds one road's trained estimators.
type roadModel struct {
	neighbors []roadnet.RoadID
	pairs     []pairModel
	// expRelUp/expRelDown are the road's mean historical rel conditioned on
	// its own trend, with varUp/varDown the matching variances; together the
	// regression-free prior predictor.
	expRelUp, expRelDown float64
	varUp, varDown       float64
	// expRelAll/varAll are the unconditional moments, used by trend-free
	// pre-passes.
	expRelAll, varAll float64
	// levelPairs[l] predicts the road's rel from its level-l group's mean
	// deviation; nil entries mark insufficient data.
	levelPairs []*pairModel
}

// Model is the trained hierarchical linear model.
type Model struct {
	cfg    Config
	graph  *corr.Graph
	roads  []roadModel
	levels [][]int // nil when pooling is disabled
}

// NumRoads returns the number of roads covered.
func (m *Model) NumRoads() int { return len(m.roads) }

// RegressionCoverage returns the fraction of roads with at least one usable
// pairwise regression; a training-quality diagnostic.
func (m *Model) RegressionCoverage() float64 {
	n := 0
	for i := range m.roads {
		if len(m.roads[i].pairs) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(m.roads))
}

// Train fits the model from history over the correlation graph.
func Train(graph *corr.Graph, db *history.DB, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if graph.NumRoads() != db.NumRoads() {
		return nil, fmt.Errorf("hlm: graph has %d roads, history has %d", graph.NumRoads(), db.NumRoads())
	}
	if err := checkLevels(cfg, graph.NumRoads()); err != nil {
		return nil, err
	}
	return fit(nil, graph, db, cfg, nil), nil
}

// checkLevels rejects pooling levels that do not assign every road a group.
func checkLevels(cfg Config, n int) error {
	for l, groups := range cfg.Levels {
		if len(groups) != n {
			return fmt.Errorf("hlm: level %d has %d group assignments for %d roads", l, len(groups), n)
		}
	}
	return nil
}

// Request carries the per-slot inputs for estimation.
type Request struct {
	// Slot is the absolute time slot being estimated.
	Slot int
	// SeedRels maps seed roads to their crowdsourced relative speeds
	// (observed speed / historical mean).
	SeedRels map[roadnet.RoadID]float64
	// TrendUp[r] is the step-1 inferred trend for every road (seeds should
	// carry their observed trend).
	TrendUp []bool
	// PUp optionally carries the step-1 trend marginals. When present, the
	// prior predictor blends the up/down expected rels by the marginal
	// instead of committing to the harder TrendUp bit, preserving the
	// graphical model's uncertainty.
	PUp []float64
	// Flat disables the hierarchical schedule: every road is predicted from
	// its neighbours' trend-expected rels in a single pass (ablation A2).
	Flat bool
	// TrendFree restricts every predictor to its pooled (trend-agnostic)
	// regression. Used for the magnitude pre-pass that seeds the trend
	// model's node priors, and as the "no trends" ablation (A1).
	TrendFree bool
}

// Estimate produces relative speed estimates for every road. Use SpeedsOf to
// convert to absolute speeds.
func (m *Model) Estimate(req *Request) ([]float64, error) {
	n := m.NumRoads()
	if len(req.TrendUp) != n {
		return nil, fmt.Errorf("hlm: TrendUp has %d entries, want %d", len(req.TrendUp), n)
	}
	if req.PUp != nil && len(req.PUp) != n {
		return nil, fmt.Errorf("hlm: PUp has %d entries, want %d", len(req.PUp), n)
	}
	for r := range req.SeedRels {
		if int(r) < 0 || int(r) >= n {
			return nil, fmt.Errorf("hlm: seed road %d out of range", r)
		}
	}

	rel := make([]float64, n)
	known := make([]bool, n)
	for r, v := range req.SeedRels {
		rel[r] = clampRel(v)
		known[r] = true
	}
	groupDev := m.seedGroupDevs(req)

	if req.Flat {
		// Flat-mode predictions are independent (each road reads only its
		// neighbours' trend-expected rels, never running estimates), so the
		// per-road regression/fusion loop fans out across the worker pool.
		par.For(n, 0, func(start, end int) {
			for r := start; r < end; r++ {
				if known[r] {
					continue
				}
				rel[r] = m.predictRoad(roadnet.RoadID(r), req, nil, nil, groupDev)
			}
		})
		return rel, nil
	}

	// Hierarchical schedule: BFS order over the correlation graph from the
	// seed set; a road may use the running estimate of any neighbour
	// scheduled before it, so observed magnitudes propagate outward with
	// learned per-pair shrinkage. This loop is inherently sequential — each
	// prediction feeds the next — which is why the trend-free pre-pass and
	// the seed-conditional pass carry the parallelism instead.
	order := m.bfsOrder(req.SeedRels)
	for _, r := range order {
		if known[r] {
			continue
		}
		rel[r] = m.predictRoad(r, req, rel, known, groupDev)
		known[r] = true
	}
	// Roads unreachable from any seed fall back to the trend prior; these
	// are independent, so the fusion loop fans out.
	par.For(n, 0, func(start, end int) {
		for r := start; r < end; r++ {
			if !known[r] {
				rel[r] = m.priorRel(roadnet.RoadID(r), req)
			}
		}
	})
	return rel, nil
}

// bfsOrder returns all reachable roads in breadth-first order from the seeds
// along correlation edges (seeds first, in ascending ID order).
func (m *Model) bfsOrder(seeds map[roadnet.RoadID]float64) []roadnet.RoadID {
	n := m.NumRoads()
	visited := make([]bool, n)
	queue := make([]roadnet.RoadID, 0, len(seeds))
	for r := range seeds {
		queue = append(queue, r)
	}
	for i := 1; i < len(queue); i++ { // insertion sort: seed sets are small
		for j := i; j > 0 && queue[j] < queue[j-1]; j-- {
			queue[j], queue[j-1] = queue[j-1], queue[j]
		}
	}
	for _, r := range queue {
		visited[r] = true
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, e := range m.graph.Neighbors(cur) {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return queue
}

// seedGroupDevs returns, per level and group, the mean rel deviation of the
// seed roads in it. Nil when pooling is disabled.
func (m *Model) seedGroupDevs(req *Request) []map[int]float64 {
	if m.levels == nil || len(req.SeedRels) == 0 {
		return nil
	}
	// Iterate seeds in sorted order: summing floats in map-iteration order
	// would make estimates differ across identical calls in the last bits.
	seeds := make([]roadnet.RoadID, 0, len(req.SeedRels))
	for r := range req.SeedRels {
		seeds = append(seeds, r)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	out := make([]map[int]float64, len(m.levels))
	for l, groups := range m.levels {
		sum := make(map[int]float64)
		cnt := make(map[int]int)
		for _, r := range seeds {
			g := groups[r]
			sum[g] += clampRel(req.SeedRels[r]) - 1
			cnt[g]++
		}
		devs := make(map[int]float64, len(sum))
		for g, c := range cnt {
			devs[g] = sum[g] / float64(c)
		}
		out[l] = devs
	}
	return out
}

// predictRoad estimates one road's rel by inverse-variance combination of
// its available pairwise predictions, the pooled level predictions and the
// trend prior. known selects which neighbours' running estimates may be
// used (nil = flat mode, which feeds every pair its neighbour's
// trend-expected rel).
func (m *Model) predictRoad(r roadnet.RoadID, req *Request, rel []float64, known []bool, groupDev []map[int]float64) float64 {
	rm := &m.roads[r]
	up := req.TrendUp[r]
	p := 0.0
	soft := req.PUp != nil
	if soft {
		p = req.PUp[r]
	}

	var wsum, acc float64

	for i, nb := range rm.neighbors {
		var x float64
		switch {
		case known != nil && known[nb]:
			x = rel[nb]
		case known == nil:
			x = m.priorRel(nb, req)
		default:
			continue
		}
		pred, w, ok := rm.pairs[i].predict(x, p, up, soft, req.TrendFree)
		if !ok {
			continue
		}
		acc += w * pred
		wsum += w
	}

	// Pooled predictors: one per level, fed the mean deviation of the
	// road's group-mates among the seeds.
	for l, pm := range rm.levelPairs {
		if pm == nil || groupDev == nil {
			continue
		}
		x, okDev := groupDev[l][m.levels[l][r]]
		if !okDev {
			continue
		}
		pred, w, ok := pm.predict(x, p, up, soft, req.TrendFree)
		if !ok {
			continue
		}
		acc += w * pred
		wsum += w
	}
	//lint:ignore floateq exact zero means no predictor contributed any weight; every usable weight is strictly positive
	if wsum == 0 {
		// No usable predictor: the trend-conditioned prior.
		return m.priorRel(r, req)
	}
	return clampRel(acc / wsum)
}

// priorRel returns the road's trend-conditioned expected rel: a soft blend
// by the trend marginal when PUp is available, the hard trend bit otherwise.
func (m *Model) priorRel(r roadnet.RoadID, req *Request) float64 {
	rm := &m.roads[r]
	if req.TrendFree {
		return clampRel(rm.expRelAll)
	}
	if req.PUp != nil {
		p := req.PUp[r]
		return clampRel(p*rm.expRelUp + (1-p)*rm.expRelDown)
	}
	if req.TrendUp[r] {
		return clampRel(rm.expRelUp)
	}
	return clampRel(rm.expRelDown)
}

// clampRel keeps relative speeds in a physical envelope: a road rarely runs
// below 25% or above 175% of its historical mean.
func clampRel(v float64) float64 {
	if math.IsNaN(v) {
		return 1
	}
	if v < 0.25 {
		return 0.25
	}
	if v > 1.75 {
		return 1.75
	}
	return v
}

// SpeedsOf converts relative estimates to absolute speeds using the
// historical means for the slot. Roads without history get speed 0 and
// should be reported as unestimatable by callers.
func SpeedsOf(db *history.DB, slot int, rel []float64) []float64 {
	out := make([]float64, len(rel))
	for r := range rel {
		if mean, ok := db.Mean(roadnet.RoadID(r), slot); ok {
			out[r] = rel[r] * mean
		}
	}
	return out
}

// DebugSlopes returns the pooled slope of every pairwise regression; a
// training diagnostic used by cmd/diag and tests.
func (m *Model) DebugSlopes() []float64 {
	var out []float64
	for i := range m.roads {
		for _, p := range m.roads[i].pairs {
			if p.pooled != nil && len(p.pooled.Coef) == 1 {
				out = append(out, p.pooled.Coef[0])
			}
		}
	}
	return out
}
