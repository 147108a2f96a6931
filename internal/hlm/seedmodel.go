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
	// road: four, as many as a linalg.Sums fits.
	maxSeedFeatures = linalg.MaxFeatures
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
// regressions take one feature per seed in feats[:k]. It holds no pointer,
// so the garbage collector never scans a SeedModel's roads.
type seedRoadModel struct {
	k      int                             // features used; 0 falls back to the generic model
	feats  [maxSeedFeatures]roadnet.RoadID // seed roads used as features
	impute [maxSeedFeatures]float64        // fallback feature value per seed (its mean rel)
	trio[linalg.Fit]
}

// SeedModel is a Model specialised to a fixed seed set: every road that has
// usable correlations with seeds predicts directly from the crowdsourced
// seed rels, eliminating multi-hop propagation error. Roads without such
// correlations fall back to the generic model's estimate.
//
// Training happens once per seed set (after seed selection) and inference
// tolerates missing seed reports by imputing the seed's historical mean.
type SeedModel struct {
	base   *Model
	seeds  []roadnet.RoadID // the distinct seeds, in the order Specialize was given them
	isSeed []bool           // road-indexed membership of seeds
	roads  []seedRoadModel  // k = 0 → fall back to base
}

// Seeds returns the distinct seeds sm was specialised to, in the order
// Specialize was given them; a nil sm has none.
func (sm *SeedModel) Seeds() []roadnet.RoadID {
	if sm == nil {
		return nil
	}
	return slices.Clone(sm.seeds)
}

// SeedSet reports whether road s, a road of the model, belongs to the
// specialised seed set.
func (sm *SeedModel) SeedSet(s roadnet.RoadID) bool { return sm.isSeed[s] }

// SpecializedTo reports whether sm was specialised to exactly the roads of
// seeds, a set of distinct roads in any order.
func (sm *SeedModel) SpecializedTo(seeds []roadnet.RoadID) bool {
	if len(seeds) != len(sm.seeds) {
		return false
	}
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= len(sm.isSeed) || !sm.isSeed[s] {
			return false
		}
	}
	return true
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
		base:   m,
		seeds:  make([]roadnet.RoadID, 0, len(seeds)),
		isSeed: make([]bool, n),
		roads:  make([]seedRoadModel, n),
	}
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= n {
			return nil, fmt.Errorf("hlm: seed road %d out of range", s)
		}
		if !sm.isSeed[s] {
			sm.isSeed[s] = true
			sm.seeds = append(sm.seeds, s)
		}
	}
	for r := 0; r < n; r++ {
		id := roadnet.RoadID(r)
		if sm.isSeed[id] {
			continue // seeds are observed directly
		}
		cands := candidates(id)
		if len(cands) > maxSeedCandidates {
			cands = cands[:maxSeedCandidates]
		}
		sm.roads[r] = trainSeedRoad(db, id, cands, sm.isSeed)
	}
	return sm, nil
}

// corrStat holds a candidate's correlation with the target road.
type corrStat struct {
	seed roadnet.RoadID
	corr float64
	mean float64 // seed's mean rel over co-observed slots (for imputation)
}

// trainSeedRoad keeps the strongest-correlated candidates and fits the
// trend-conditioned regressions on aligned history. isSeed is the
// road-indexed seed membership.
func trainSeedRoad(db *history.DB, r roadnet.RoadID, cands []roadnet.RoadID, isSeed []bool) seedRoadModel {
	scored := scoreSeeds(db, r, cands, isSeed)
	kmax := min(maxSeedFeatures, len(scored))
	var feats [maxSeedFeatures]roadnet.RoadID
	for i := range kmax {
		feats[i] = scored[i].seed
	}

	// Adaptive feature count: a k-feature row needs the road and its first
	// k seeds co-observed, so each slot's row joins the sums of every k up
	// to the longest prefix of seeds observed there, and the largest k
	// whose trio fits wins.
	var sums [maxSeedFeatures]seedTrioSums // sums[k-1] fits k features
	var x [maxSeedFeatures]float64
	db.EachAligned(r, feats[:kmax], func(_ int32, rel float32, rels []float32) {
		for i, v := range rels {
			x[i] = float64(v)
		}
		for k := range rels {
			sums[k].add(x[:k+1], float64(rel))
		}
	})
	for k := kmax; k >= 1; k-- {
		if pm, ok := sums[k-1].fit(); ok {
			srm := seedRoadModel{k: k, trio: pm}
			for i := range k {
				srm.feats[i], srm.impute[i] = scored[i].seed, scored[i].mean
			}
			return srm
		}
	}
	return seedRoadModel{}
}

// scoreSeeds returns the candidates that are seeds other than r, hold at
// least minSeedSamples slots co-observed with r and correlate with it at
// least minSeedCorr strongly, strongest first.
func scoreSeeds(db *history.DB, r roadnet.RoadID, cands []roadnet.RoadID, isSeed []bool) []corrStat {
	var scored []corrStat
	for _, c := range cands {
		if !isSeed[c] || c == r {
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
	sort.Slice(scored, func(i, j int) bool {
		//lint:ignore floateq sort tie-break: exact equality falls through to the seed order, an epsilon would break strict weak ordering
		if math.Abs(scored[i].corr) != math.Abs(scored[j].corr) {
			return math.Abs(scored[i].corr) > math.Abs(scored[j].corr)
		}
		return scored[i].seed < scored[j].seed
	})
	return scored
}

// seedTrioSums gathers a seed trio's rows in one pass, as trioSums does for
// one feature: the sums of its down rows (y < 1) at index 0 and of its up
// rows at index 1.
type seedTrioSums [2]linalg.Sums

func (s *seedTrioSums) add(x []float64, y float64) { s[b2i(y >= 1)].Add(x, y) }

// fit solves the trio under the seed model's rules: pooled over every row,
// and up and down over each class's rows when the class holds at least
// minSeedSamples/2 of them; a class that is scarcer or fails to fit is left
// zero. ok is false, and the trio zero, when fewer than minSeedSamples rows
// exist or the pooled fit fails.
func (s *seedTrioSums) fit() (pm trio[linalg.Fit], ok bool) {
	pooled := s[1]
	pooled.Merge(&s[0])
	if pooled.N() < minSeedSamples {
		return pm, false
	}
	var err error
	if pm.pooled, err = pooled.Fit(lambda); err != nil {
		return trio[linalg.Fit]{}, false
	}
	if s[1].N() >= minSeedSamples/2 {
		pm.up, _ = s[1].Fit(lambda) // the zero Fit on failure
	}
	if s[0].N() >= minSeedSamples/2 {
		pm.down, _ = s[0].Fit(lambda)
	}
	return pm, true
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
	var xs [maxSeedFeatures]float64
	for r := range base {
		srm := &sm.roads[r]
		if srm.k == 0 {
			continue
		}
		if !math.IsNaN(req.Rel[r]) {
			continue // a reported road keeps its own rel
		}
		x := xs[:srm.k]
		reported := 0
		for i, f := range srm.feats[:srm.k] {
			if v := req.Rel[f]; !math.IsNaN(v) {
				x[i] = clampRel(v)
				reported++
			} else {
				x[i] = srm.impute[i]
			}
		}
		if reported == 0 {
			continue // nothing observed: keep the generic estimate
		}
		pred, _, _ := srm.mix(req, roadnet.RoadID(r), func(f linalg.Fit) (float64, float64, bool) {
			return f.At(x), 0, true
		})
		// A fitted seed regression replaces the generic estimate outright.
		base[r] = clampRel(pred)
	}
	return base, nil
}
