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
// Step 1 reaches the model as one input, every road's trend marginal P(up)
// (Request.PUp). Each trend-conditioned predictor — pairwise, level, prior
// and seed-conditional — has an up and a down variant, and blend mixes the
// two by the marginal. A request without marginals is trend-free: every
// predictor reads its pooled, trend-agnostic variant instead.
//
// The fallback chain is pairwise regressions → trend-conditioned historical
// rel → 1.0 (the historical mean).
package hlm

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/roadnet"
)

// Training constants of the generic model.
const (
	// maxNeighbors caps the number of correlated neighbours with pairwise
	// regressions per road.
	maxNeighbors = 5
	// minSamples is the fewest co-observed history slots a pairwise or
	// level regression is trusted with.
	minSamples = 30
	// lambda is the ridge penalty of every regression the package fits,
	// generic and seed-conditional.
	lambda = 0.1
)

// Config parameterises training.
type Config struct {
	// Levels optionally adds pooled predictors. Each level assigns every
	// road to a group (len must equal the number of roads); the road then
	// gains one regression of its rel on the mean rel-deviation of the
	// other observed roads in its group. Typical levels: road class (all
	// expressways fill up together), local area (congestion is spatially
	// smooth), the whole city (global demand). nil disables pooling.
	Levels [][]int
}

// trio holds one predictor's trend-conditioned regressions: pooled over
// every training row, and up and down over the rows of each trend. The
// generic model's pairwise and level predictors have one feature and are
// stored inline as trio[linalg.Line], 96 bytes without a pointer; the
// seed-conditional regressions, of up to maxSeedFeatures features, as
// trio[linalg.Fit], 168 bytes without a pointer. The zero M — a Line or Fit
// with N = 0 — marks a trend class too scarce to fit, and a fitted trio's
// pooled regression is never zero.
type trio[M comparable] struct{ up, down, pooled M }

// fitted reports whether the trio holds a pooled regression.
func (t *trio[M]) fitted() bool {
	var zero M
	return t.pooled != zero
}

// mix evaluates the regressions through eval, which returns one
// regression's prediction and combination weight, for road r of req. A
// trend-free request reads the pooled regression. Otherwise the up and down
// regressions, each falling back to pooled, are blended by the road's
// marginal: committing to the likelier trend would amplify step-1 mistakes.
// ok is false when no regression evaluates.
func (t *trio[M]) mix(req *Request, r roadnet.RoadID, eval func(M) (pred, weight float64, ok bool)) (pred, weight float64, ok bool) {
	if req.PUp == nil {
		return eval(t.pooled)
	}
	upPred, upW, upOK := eval(cmp.Or(t.up, t.pooled))
	downPred, downW, downOK := eval(cmp.Or(t.down, t.pooled))
	switch {
	case upOK && downOK:
		p := req.PUp[r]
		return blend(p, upPred, downPred), blend(p, upW, downW), true
	case upOK:
		return upPred, upW, true
	case downOK:
		return downPred, downW, true
	default:
		return 0, 0, false
	}
}

// predictPair evaluates a fitted one-feature trio at x for road r of req,
// with its combination weight: inverse residual variance.
func predictPair(pm *trio[linalg.Line], req *Request, r roadnet.RoadID, x float64) (pred, weight float64) {
	pred, weight, _ = pm.mix(req, r, func(l linalg.Line) (float64, float64, bool) {
		return l.At(x), 1 / (l.RMSE*l.RMSE + 1e-4), true
	})
	return pred, weight
}

// blend mixes a road's up and down predictions by its trend marginal p. At
// p = 1 it returns up exactly and at p = 0 down exactly.
func blend(p, up, down float64) float64 { return p*up + (1-p)*down }

// roadModel holds one road's trained estimators. Its slices are exactly
// sized, and the regression slices hold no pointer, so the garbage collector
// never scans them.
type roadModel struct {
	// pairs[i] regresses the road's rel on the rel of neighbors[i].
	neighbors []roadnet.RoadID
	pairs     []trio[linalg.Line]
	// expRelUp/expRelDown are the road's mean historical rel conditioned on
	// its own trend: the regression-free prior predictor.
	expRelUp, expRelDown float64
	// expRelAll is the unconditional mean, used by trend-free requests.
	expRelAll float64
	// levelPairs[l] predicts the road's rel from its level-l group's mean
	// deviation; an unfitted trio marks insufficient data.
	levelPairs []trio[linalg.Line]
}

// Model is the trained hierarchical linear model.
type Model struct {
	graph  *corr.Graph
	roads  []roadModel
	levels []poolLevel // empty when pooling is disabled
}

// poolLevel is one pooling level (Config.Levels) with its group IDs numbered
// densely, in ascending ID order, once at training: group[r] is road r's
// group number, in [0, numGroups).
type poolLevel struct {
	group     []int32
	numGroups int
}

// numberGroups numbers each level's distinct group IDs densely in ascending
// order.
func numberGroups(levels [][]int) []poolLevel {
	out := make([]poolLevel, len(levels))
	for l, groups := range levels {
		ids := slices.Clone(groups)
		slices.Sort(ids)
		ids = slices.Compact(ids)
		group := make([]int32, len(groups))
		for r, g := range groups {
			i, _ := slices.BinarySearch(ids, g)
			group[r] = int32(i)
		}
		out[l] = poolLevel{group: group, numGroups: len(ids)}
	}
	return out
}

// NumRoads returns the number of roads covered.
func (m *Model) NumRoads() int { return len(m.roads) }

// Train fits the model from history over the correlation graph.
func Train(graph *corr.Graph, db *history.DB, cfg Config) (*Model, error) {
	n := graph.NumRoads()
	if n != db.NumRoads() {
		return nil, fmt.Errorf("hlm: graph has %d roads, history has %d", n, db.NumRoads())
	}
	for l, groups := range cfg.Levels {
		if len(groups) != n {
			return nil, fmt.Errorf("hlm: level %d has %d group assignments for %d roads", l, len(groups), n)
		}
	}
	return fit(nil, graph, db, numberGroups(cfg.Levels), nil), nil
}

// Request carries the per-slot inputs for estimation.
type Request struct {
	// Rel holds every road's crowdsourced relative speed (observed speed /
	// historical mean), NaN on a road with no report. Its length is the
	// model's road count.
	Rel []float64
	// PUp is step 1's output: every road's trend marginal P(up), by which
	// each trend-conditioned predictor blends its up and down variants. nil
	// makes the request trend-free: every predictor reads its pooled
	// (trend-agnostic) variant. Core's magnitude pre-pass and the "no
	// trends" ablation (A1) are trend-free.
	PUp []float64
	// Flat disables the hierarchical schedule: every road is predicted from
	// its neighbours' trend-expected rels in a single pass (ablation A2).
	Flat bool
}

// Estimate produces relative speed estimates for every road. Use SpeedsOf to
// convert to absolute speeds.
func (m *Model) Estimate(req *Request) ([]float64, error) {
	n := m.NumRoads()
	if len(req.Rel) != n {
		return nil, fmt.Errorf("hlm: Rel has %d entries, want %d", len(req.Rel), n)
	}
	if req.PUp != nil && len(req.PUp) != n {
		return nil, fmt.Errorf("hlm: PUp has %d entries, want %d", len(req.PUp), n)
	}

	rel := make([]float64, n)
	known := make([]bool, n)
	// order starts with the reporting roads in ascending ID order, the order
	// every sum over them runs in; the hierarchical schedule walks on from
	// them.
	order := make([]roadnet.RoadID, 0, n)
	for r, v := range req.Rel {
		if math.IsNaN(v) {
			continue
		}
		rel[r], known[r] = clampRel(v), true
		order = append(order, roadnet.RoadID(r))
	}
	groupDev := m.seedGroupDevs(rel, order)

	if req.Flat {
		// Flat-mode predictions are independent: each road reads only its
		// neighbours' trend-expected rels, never running estimates.
		for r := 0; r < n; r++ {
			if known[r] {
				continue
			}
			rel[r] = m.predictRoad(roadnet.RoadID(r), req, nil, nil, groupDev)
		}
		return rel, nil
	}

	// Hierarchical schedule: a breadth-first walk over the correlation graph
	// from the seeds predicts each road as it takes it from the queue, so a
	// road may use the running estimate of any neighbour taken before it,
	// and observed magnitudes propagate outward with learned per-pair
	// shrinkage. This loop is inherently sequential: each prediction feeds
	// the next.
	visited := slices.Clone(known)
	for qi := 0; qi < len(order); qi++ {
		r := order[qi]
		if !known[r] {
			rel[r] = m.predictRoad(r, req, rel, known, groupDev)
			known[r] = true
		}
		for _, e := range m.graph.Neighbors(r) {
			if !visited[e.To] {
				visited[e.To] = true
				order = append(order, e.To)
			}
		}
	}
	// Roads unreachable from any seed fall back to the trend prior.
	for r := 0; r < n; r++ {
		if !known[r] {
			rel[r] = m.priorRel(roadnet.RoadID(r), req)
		}
	}
	return rel, nil
}

// seedGroupDevs returns, per level and group number, the mean rel deviation
// of the seeds in the group, NaN for a group with none. rel holds the seeds'
// rels, and seeds lists them in ascending ID order, the order each group's
// sum runs in. Nil when pooling is disabled or there is no seed.
func (m *Model) seedGroupDevs(rel []float64, seeds []roadnet.RoadID) [][]float64 {
	if len(m.levels) == 0 || len(seeds) == 0 {
		return nil
	}
	out := make([][]float64, len(m.levels))
	for l, lv := range m.levels {
		sum, cnt := make([]float64, lv.numGroups), make([]int32, lv.numGroups)
		for _, r := range seeds {
			g := lv.group[r]
			sum[g] += rel[r] - 1
			cnt[g]++
		}
		for g, c := range cnt {
			sum[g] /= float64(c) // 0/0, NaN, for a group without seeds
		}
		out[l] = sum
	}
	return out
}

// predictRoad estimates one road's rel by inverse-variance combination of
// its available pairwise predictions, the pooled level predictions and the
// trend prior. known selects which neighbours' running estimates may be
// used (nil = flat mode, which feeds every pair its neighbour's
// trend-expected rel).
func (m *Model) predictRoad(r roadnet.RoadID, req *Request, rel []float64, known []bool, groupDev [][]float64) float64 {
	rm := &m.roads[r]
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
		pred, w := predictPair(&rm.pairs[i], req, r, x)
		acc += w * pred
		wsum += w
	}

	// Pooled predictors: one per level, fed the mean deviation of the
	// road's group-mates among the seeds.
	for l := range rm.levelPairs {
		pm := &rm.levelPairs[l]
		if !pm.fitted() || groupDev == nil {
			continue
		}
		x := groupDev[l][m.levels[l].group[r]]
		if math.IsNaN(x) {
			continue
		}
		pred, w := predictPair(pm, req, r, x)
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

// priorRel returns the road's expected historical rel: unconditional for a
// trend-free request, otherwise its trend-conditioned expectations blended
// by the road's marginal.
func (m *Model) priorRel(r roadnet.RoadID, req *Request) float64 {
	rm := &m.roads[r]
	if req.PUp == nil {
		return clampRel(rm.expRelAll)
	}
	return clampRel(blend(req.PUp[r], rm.expRelUp, rm.expRelDown))
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
