package hlm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/roadnet"
)

// Seed-conditional training constants. The ridge penalty is lambda, as in
// the generic model.
const (
	// maxSeedFeatures caps the number of seed roads used as regressors per
	// road.
	maxSeedFeatures = 4
	// maxSeedCandidates caps how many candidate seeds are correlation-scored
	// per road before the top maxSeedFeatures are kept.
	maxSeedCandidates = 12
	// minSeedSamples is the fewest aligned history rows a seed regression
	// is trusted with; roads with fewer keep the generic model.
	minSeedSamples = 40
	// minSeedCorr drops candidate seeds whose historical correlation with
	// the road is weaker than this.
	minSeedCorr = 0.15
)

// seedRoadModel is one road's seed-conditional regressions: a trio whose
// regressions take one feature per seed in feats.
type seedRoadModel struct {
	feats  []roadnet.RoadID // seed roads used as features
	impute []float64        // fallback feature value per seed (its mean rel)
	trio[*linalg.RidgeModel]
}

// SeedModel is a Model specialised to a fixed seed set: every road that has
// usable correlations with seeds predicts directly from the crowdsourced
// seed rels, eliminating multi-hop propagation error. Roads without such
// correlations fall back to the generic model's estimate.
//
// Training happens once per seed set (after seed selection) and inference
// tolerates missing seed reports by imputing the seed's historical mean.
type SeedModel struct {
	base    *Model
	seedSet map[roadnet.RoadID]bool
	roads   []seedRoadModel // empty feats → fall back to base
}

// SeedSet reports whether road s belongs to the specialised seed set.
func (sm *SeedModel) SeedSet(s roadnet.RoadID) bool { return sm.seedSet[s] }

// SpecializedTo reports whether sm was specialised to exactly the roads of
// seeds, a set of distinct roads in any order.
func (sm *SeedModel) SpecializedTo(seeds []roadnet.RoadID) bool {
	if len(seeds) != len(sm.seedSet) {
		return false
	}
	for _, s := range seeds {
		if !sm.seedSet[s] {
			return false
		}
	}
	return true
}

// Coverage returns the fraction of roads with a seed-conditional regression.
func (sm *SeedModel) Coverage() float64 {
	n := 0
	for i := range sm.roads {
		if len(sm.roads[i].feats) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(sm.roads))
}

// Specialize trains seed-conditional regressions for every road. candidates
// must return, for a road, the seed roads worth correlation-scoring for it —
// typically the spatially nearest seeds plus the nearest same-class seeds;
// it may return any subset of seeds (others are ignored).
func (m *Model) Specialize(db *history.DB, seeds []roadnet.RoadID, candidates func(roadnet.RoadID) []roadnet.RoadID) (*SeedModel, error) {
	if candidates == nil {
		return nil, fmt.Errorf("hlm: Specialize requires a candidate provider")
	}
	n := m.NumRoads()
	sm := &SeedModel{
		base:    m,
		seedSet: make(map[roadnet.RoadID]bool, len(seeds)),
		roads:   make([]seedRoadModel, n),
	}
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= n {
			return nil, fmt.Errorf("hlm: seed road %d out of range", s)
		}
		sm.seedSet[s] = true
	}
	var buf fitBuf
	for r := 0; r < n; r++ {
		id := roadnet.RoadID(r)
		if sm.seedSet[id] {
			continue // seeds are observed directly
		}
		cands := candidates(id)
		if len(cands) > maxSeedCandidates {
			cands = cands[:maxSeedCandidates]
		}
		sm.roads[r] = trainSeedRoad(db, id, cands, sm.seedSet, &buf)
	}
	return sm, nil
}

// corrStat holds a candidate's correlation with the target road.
type corrStat struct {
	seed roadnet.RoadID
	corr float64
	mean float64 // seed's mean rel over co-observed slots (for imputation)
}

// trainSeedRoad scores candidates, keeps the strongest, and fits the
// trend-conditioned regressions on aligned history.
func trainSeedRoad(db *history.DB, r roadnet.RoadID, cands []roadnet.RoadID, seedSet map[roadnet.RoadID]bool, buf *fitBuf) seedRoadModel {
	var scored []corrStat
	for _, c := range cands {
		if !seedSet[c] || c == r {
			continue
		}
		var n int
		var sx, sy, sxx, syy, sxy float64
		db.CoObserved(r, c, func(_ int32, relR, relC float32) {
			x, y := float64(relC), float64(relR)
			n++
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
		})
		if n < minSeedSamples {
			continue
		}
		fn := float64(n)
		cov := sxy/fn - (sx/fn)*(sy/fn)
		vx := sxx/fn - (sx/fn)*(sx/fn)
		vy := syy/fn - (sy/fn)*(sy/fn)
		if vx <= 1e-12 || vy <= 1e-12 {
			continue
		}
		corr := cov / math.Sqrt(vx*vy)
		if math.Abs(corr) < minSeedCorr {
			continue
		}
		scored = append(scored, corrStat{seed: c, corr: corr, mean: sx / fn})
	}
	if len(scored) == 0 {
		return seedRoadModel{}
	}
	sort.Slice(scored, func(i, j int) bool {
		//lint:ignore floateq sort tie-break: exact equality falls through to the seed order, an epsilon would break strict weak ordering
		if math.Abs(scored[i].corr) != math.Abs(scored[j].corr) {
			return math.Abs(scored[i].corr) > math.Abs(scored[j].corr)
		}
		return scored[i].seed < scored[j].seed
	})

	// Adaptive feature count: aligned rows need all features co-observed
	// with the road, so shrink until enough rows exist.
	for k := min(maxSeedFeatures, len(scored)); k >= 1; k-- {
		srm := seedRoadModel{
			feats:  make([]roadnet.RoadID, k),
			impute: make([]float64, k),
		}
		for i := 0; i < k; i++ {
			srm.feats[i] = scored[i].seed
			srm.impute[i] = scored[i].mean
		}
		buf.x, buf.y = alignedSeedRows(db, r, srm.feats, buf.x[:0], buf.y[:0])
		var ok bool
		if srm.trio, ok = fitTrend(buf, buf.x, k, buf.y, minSeedSamples, lambda); ok {
			return srm
		}
	}
	return seedRoadModel{}
}

// fitBuf holds the reusable design and response buffers of one
// specialisation; it is not safe for concurrent use.
type fitBuf struct {
	x, y                   []float64
	upX, upY, downX, downY []float64
}

// fitTrend fits the trend-conditioned regressions of y on the row-major n×p
// design x with linalg.RidgeFit: pooled over every row, and up (y ≥ 1) and
// down (y < 1) over the matching rows when each class holds at least
// minSamples/2 of them; a class that is scarcer or fails to fit is left
// nil. ok is false, and the trio zero, when fewer than minSamples rows exist
// or the pooled fit fails.
func fitTrend(b *fitBuf, x []float64, p int, y []float64, minSamples int, lambda float64) (pm trio[*linalg.RidgeModel], ok bool) {
	n := len(y)
	if n < minSamples {
		return pm, false
	}
	var err error
	if pm.pooled, err = linalg.RidgeFit(x, p, y, lambda); err != nil {
		return trio[*linalg.RidgeModel]{}, false
	}
	b.upX, b.downX = resize(b.upX, n*p), resize(b.downX, n*p)
	b.upY, b.downY = resize(b.upY, n), resize(b.downY, n)
	nUp := partition(x, p, y, b.upX, b.upY, b.downX, b.downY)
	if nUp >= minSamples/2 {
		if m, err := linalg.RidgeFit(b.upX[:nUp*p], p, b.upY[:nUp], lambda); err == nil {
			pm.up = m
		}
	}
	if n-nUp >= minSamples/2 {
		if m, err := linalg.RidgeFit(b.downX[:(n-nUp)*p], p, b.downY[:n-nUp], lambda); err == nil {
			pm.down = m
		}
	}
	return pm, true
}

// partition writes the rows with y ≥ 1 to the front of upX and upY and the
// others to the front of downX and downY, and returns the number of up rows.
// Which class a row joins is a coin flip, so there is no branch on it: each
// row is written to both classes and only its own class's cursor advances.
// The partition is stable, so each class fits its rows in row order. Every
// buffer must hold len(y) rows.
func partition(x []float64, p int, y, upX, upY, downX, downY []float64) (up int) {
	if p == 1 {
		// The loop below for one feature, without its column loop, which
		// doubles its cost there.
		x = x[:len(y)]
		for i, v := range y {
			upX[up], upY[up] = x[i], v
			downX[i-up], downY[i-up] = x[i], v
			up += b2i(v >= 1)
		}
		return up
	}
	x = x[:len(y)*p]
	for i, v := range y {
		row := x[i*p : (i+1)*p]
		u, d := upX[up*p:(up+1)*p], downX[(i-up)*p:(i-up+1)*p]
		for k, xv := range row {
			u[k], d[k] = xv, xv
		}
		upY[up], downY[i-up] = v, v
		up += b2i(v >= 1)
	}
	return up
}

// resize returns buf with length n, reallocating only when it is too short.
func resize(buf []float64, n int) []float64 { return slices.Grow(buf[:0], n)[:n] }

// alignedSeedRows appends to x (row-major, one column per feature seed) and
// y the slots where the road and every feature seed were co-observed.
func alignedSeedRows(db *history.DB, r roadnet.RoadID, feats []roadnet.RoadID, x, y []float64) ([]float64, []float64) {
	db.EachSample(r, func(slot int32, rel float32) {
		row := len(x)
		for _, f := range feats {
			v, ok := db.RelAt(f, slot)
			if !ok {
				x = x[:row]
				return
			}
			x = append(x, float64(v))
		}
		y = append(y, float64(rel))
	})
	return x, y
}

// Estimate runs seed-conditional estimation: roads with seed regressions
// predict directly from the reported seed rels (imputing a seed's historical
// mean when its report is missing); all other roads carry the generic
// model's estimate.
func (sm *SeedModel) Estimate(req *Request) ([]float64, error) {
	base, err := sm.base.Estimate(req)
	if err != nil {
		return nil, err
	}
	x := make([]float64, maxSeedFeatures)
	for r := range base {
		srm := &sm.roads[r]
		if len(srm.feats) == 0 {
			continue
		}
		if _, isSeed := req.SeedRels[roadnet.RoadID(r)]; isSeed {
			continue
		}
		x = x[:len(srm.feats)]
		reported := 0
		for i, f := range srm.feats {
			if v, ok := req.SeedRels[f]; ok {
				x[i] = clampRel(v)
				reported++
			} else {
				x[i] = srm.impute[i]
			}
		}
		if reported == 0 {
			continue // nothing observed: keep the generic estimate
		}
		pred, _, ok := srm.mix(req, roadnet.RoadID(r), func(reg *linalg.RidgeModel) (float64, float64, bool) {
			v, err := reg.Predict(x)
			return v, 0, err == nil
		})
		if !ok {
			continue
		}
		// A fitted seed regression replaces the generic estimate outright.
		base[r] = clampRel(pred)
	}
	return base, nil
}
