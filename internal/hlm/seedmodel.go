package hlm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/par"
	"repro/internal/roadnet"
)

// SpecializeConfig parameterises seed-conditional training.
type SpecializeConfig struct {
	// MaxFeatures caps the number of seed roads used as regressors per
	// road.
	MaxFeatures int
	// MaxCandidates caps how many candidate seeds are correlation-scored
	// per road before the top MaxFeatures are kept.
	MaxCandidates int
	// MinSamples is the minimum number of aligned history rows for a
	// regression to be trusted; roads with fewer keep the generic model.
	MinSamples int
	// MinAbsCorr drops candidate seeds whose historical correlation with
	// the road is weaker than this.
	MinAbsCorr float64
	// Lambda is the ridge penalty.
	Lambda float64
}

// DefaultSpecializeConfig returns the settings used by the experiments.
func DefaultSpecializeConfig() SpecializeConfig {
	return SpecializeConfig{MaxFeatures: 4, MaxCandidates: 12, MinSamples: 40, MinAbsCorr: 0.15, Lambda: 0.1}
}

// Validate rejects unusable configurations.
func (c *SpecializeConfig) Validate() error {
	if c.MaxFeatures < 1 {
		return fmt.Errorf("hlm: MaxFeatures must be ≥ 1, got %d", c.MaxFeatures)
	}
	if c.MaxCandidates < c.MaxFeatures {
		return fmt.Errorf("hlm: MaxCandidates %d below MaxFeatures %d", c.MaxCandidates, c.MaxFeatures)
	}
	if c.MinSamples < 2 {
		return fmt.Errorf("hlm: MinSamples must be ≥ 2, got %d", c.MinSamples)
	}
	if c.MinAbsCorr < 0 || c.MinAbsCorr >= 1 {
		return fmt.Errorf("hlm: MinAbsCorr must be in [0,1), got %v", c.MinAbsCorr)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("hlm: Lambda must be ≥ 0, got %v", c.Lambda)
	}
	return nil
}

// seedRoadModel is one road's seed-conditional regression.
type seedRoadModel struct {
	feats    []roadnet.RoadID // seed roads used as features
	impute   []float64        // fallback feature value per seed (its mean rel)
	up, down *linalg.RidgeModel
	pooled   *linalg.RidgeModel
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
	cfg     SpecializeConfig
	seedSet map[roadnet.RoadID]bool
	roads   []seedRoadModel // empty feats → fall back to base
}

// SeedSet reports whether road s belongs to the specialised seed set.
func (sm *SeedModel) SeedSet(s roadnet.RoadID) bool { return sm.seedSet[s] }

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
func (m *Model) Specialize(db *history.DB, seeds []roadnet.RoadID, candidates func(roadnet.RoadID) []roadnet.RoadID, cfg SpecializeConfig) (*SeedModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if candidates == nil {
		return nil, fmt.Errorf("hlm: Specialize requires a candidate provider")
	}
	n := m.NumRoads()
	sm := &SeedModel{
		base:    m,
		cfg:     cfg,
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
		if len(cands) > cfg.MaxCandidates {
			cands = cands[:cfg.MaxCandidates]
		}
		sm.roads[r] = trainSeedRoad(db, id, cands, sm.seedSet, cfg, &buf)
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
func trainSeedRoad(db *history.DB, r roadnet.RoadID, cands []roadnet.RoadID, seedSet map[roadnet.RoadID]bool, cfg SpecializeConfig, buf *fitBuf) seedRoadModel {
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
		if n < cfg.MinSamples {
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
		if math.Abs(corr) < cfg.MinAbsCorr {
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
	k := cfg.MaxFeatures
	if k > len(scored) {
		k = len(scored)
	}
	for ; k >= 1; k-- {
		srm := seedRoadModel{
			feats:  make([]roadnet.RoadID, k),
			impute: make([]float64, k),
		}
		for i := 0; i < k; i++ {
			srm.feats[i] = scored[i].seed
			srm.impute[i] = scored[i].mean
		}
		buf.x, buf.y = alignedSeedRows(db, r, srm.feats, buf.x[:0], buf.y[:0])
		pm, ok := buf.fitTrend(buf.x, k, buf.y, cfg.MinSamples, cfg.Lambda)
		if !ok {
			continue
		}
		srm.up, srm.down, srm.pooled = pm.up, pm.down, pm.pooled
		return srm
	}
	return seedRoadModel{}
}

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
	n := len(base)
	// Each road's seed regression reads only the request and writes only its
	// own slot, so the fusion loop fans out across the worker pool.
	par.For(n, 0, func(start, end int) {
		x := make([]float64, sm.cfg.MaxFeatures) // per-chunk scratch
		for r := start; r < end; r++ {
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
			pred, w, ok := sm.predictWith(srm, x, req, roadnet.RoadID(r))
			if !ok {
				continue
			}
			// Blend with the generic estimate by the regression's precision so
			// weak seed regressions do not override a strong generic estimate.
			_ = w
			base[r] = clampRel(pred)
		}
	})
	return base, nil
}

// predictWith evaluates the trend-appropriate regression.
func (sm *SeedModel) predictWith(srm *seedRoadModel, x []float64, req *Request, r roadnet.RoadID) (float64, float64, bool) {
	eval := func(reg *linalg.RidgeModel) (float64, float64, bool) {
		if reg == nil {
			return 0, 0, false
		}
		v, err := reg.Predict(x)
		if err != nil {
			return 0, 0, false
		}
		return v, 1 / (reg.RMSE*reg.RMSE + 1e-4), true
	}
	if req.TrendFree {
		return eval(srm.pooled)
	}
	if req.PUp != nil {
		p := req.PUp[r]
		upPred, upW, upOK := eval(pickReg(srm.up, srm.pooled))
		downPred, downW, downOK := eval(pickReg(srm.down, srm.pooled))
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
	if req.TrendUp[r] {
		return eval(pickReg(srm.up, srm.pooled))
	}
	return eval(pickReg(srm.down, srm.pooled))
}

func pickReg(preferred, fallback *linalg.RidgeModel) *linalg.RidgeModel {
	if preferred != nil {
		return preferred
	}
	return fallback
}
