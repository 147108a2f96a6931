package hlm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/roadnet"
)

// checkTriosMatchThreePass refits every pair and level trio that Train kept
// in m with the three-pass reference that trained them before the one-pass
// sums: the rows gathered into buffers, copied into their class and each
// class ridge-fitted (refFitTrend). Each trio must pass compareTrio: within
// lineTol, with an equal N and the same fitted or unfitted outcome for each
// class. A candidate neighbour that Train skipped must be one the reference
// leaves unfitted too.
func checkTriosMatchThreePass(t *testing.T, m *Model, db *history.DB) {
	t.Helper()
	var x, y []float64
	// check fits the rows in x and y with the reference, holds got to it
	// and reports whether the reference fitted them.
	check := func(what string, r, k int, got *trio[linalg.Line]) (worst float64, fitted bool) {
		want, ok := refFitTrend(x, 1, y, minSamples, lambda)
		worst, why := compareTrio(lineTrio(got), &want)
		if why != "" {
			t.Fatalf("road %d %s %d: %s", r, what, k, why)
		}
		return worst, ok
	}

	var lt levelTable
	ranks := db.SlotRanks()
	rank := lt.aggregate(db, ranks, m.levels, nil)
	var worstPair, worstLevel float64
	var pairs, fittedLevels int
	for r := range m.roads {
		rid, rm := roadnet.RoadID(r), &m.roads[r]
		kept := 0
		cands := m.graph.Neighbors(rid)
		for _, e := range cands[:min(maxNeighbors, len(cands))] {
			x, y = x[:0], y[:0]
			db.CoObserved(rid, e.To, func(_ int32, relR, relNb float32) {
				x = append(x, float64(relNb))
				y = append(y, float64(relR))
			})
			if kept == len(rm.neighbors) || rm.neighbors[kept] != e.To {
				// Train skipped the neighbour: the reference must leave its
				// trio unfitted, the zero trio.
				check("skipped neighbour", r, int(e.To), &trio[linalg.Line]{})
				continue
			}
			worst, ok := check("pair", r, kept, &rm.pairs[kept])
			if !ok {
				t.Fatalf("road %d: Train kept neighbour %d, which the reference leaves unfitted", r, e.To)
			}
			worstPair = max(worstPair, worst)
			kept++
			pairs++
		}
		if kept != len(rm.neighbors) {
			t.Fatalf("road %d: %d neighbours kept, %d of them among its first %d candidates", r, len(rm.neighbors), kept, maxNeighbors)
		}

		rank = ranks.Road(rid, rank)
		for l := range m.levels {
			base := lt.base(l, rid)
			x, y = x[:0], y[:0]
			for k, rel := range db.Rels(rid) {
				cell := base + int(rank[k])
				n := lt.cnt[cell]
				if n < 4 {
					continue
				}
				dev := float64(rel) - 1
				x = append(x, (lt.sum[cell]-dev)/float64(n-1))
				y = append(y, float64(rel))
			}
			got := &rm.levelPairs[l]
			worst, ok := check("level", r, l, got)
			if ok != got.fitted() {
				t.Fatalf("road %d level %d: fitted %v, reference %v", r, l, got.fitted(), ok)
			}
			if ok {
				worstLevel = max(worstLevel, worst)
				fittedLevels++
			}
		}
	}
	if pairs == 0 || fittedLevels == 0 {
		t.Fatalf("%d pair and %d level trios fitted; the test checks too little", pairs, fittedLevels)
	}
	t.Logf("%d pair trios within %.3g of the three-pass reference, %d fitted level trios within %.3g (bound %g)",
		pairs, worstPair, fittedLevels, worstLevel, lineTol)
}

// TestTrainTriosMatchThreePass: on the golden city with its five pooling
// levels, every trio Train fits from one-pass sums is the three-pass
// reference's to within lineTol.
func TestTrainTriosMatchThreePass(t *testing.T) {
	d, g, cfg := goldenCity(t)
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTriosMatchThreePass(t, m, d.DB)
}

// TestTrainTriosMatchThreePassServedCity is TestTrainTriosMatchThreePass on
// the served city. With the city built it takes well under a second, far
// longer under the race detector, so it is skipped there; CI runs it in a
// non-race step.
func TestTrainTriosMatchThreePassServedCity(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; CI runs it without -race")
	}
	d, g, cfg := servedCity(t)
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTriosMatchThreePass(t, m, d.DB)
}

// refSeedRoad is one road's seed model as the three-pass reference trains
// it, with the number of candidates that scored.
type refSeedRoad struct {
	feats  []roadnet.RoadID
	impute []float64
	trio[*refModel]
	scored int
}

// refTrainSeedRoad is trainSeedRoad as it was before the aligned walk: for k
// from the most features down, it gathers the rows where the road and its
// first k seeds were all observed, walking the road's samples and looking
// each seed's rel up sample by sample, and fits them with refFitTrend; the
// first k that fits wins.
func refTrainSeedRoad(db *history.DB, ix *sampleIndex, r roadnet.RoadID, cands []roadnet.RoadID, isSeed []bool) refSeedRoad {
	scored := scoreSeeds(db, r, cands, isSeed)
	for k := min(maxSeedFeatures, len(scored)); k >= 1; k-- {
		srm := refSeedRoad{feats: make([]roadnet.RoadID, k), impute: make([]float64, k)}
		for i := range k {
			srm.feats[i], srm.impute[i] = scored[i].seed, scored[i].mean
		}
		var x, y []float64
		db.EachSample(r, func(slot int32, rel float32) {
			row := len(x)
			for _, f := range srm.feats {
				v, ok := ix.relAt(f, slot)
				if !ok {
					x = x[:row]
					return
				}
				x = append(x, float64(v))
			}
			y = append(y, float64(rel))
		})
		var ok bool
		if srm.trio, ok = refFitTrend(x, k, y, minSeedSamples, lambda); ok {
			srm.scored = len(scored)
			return srm
		}
	}
	return refSeedRoad{scored: len(scored)}
}

// sampleIndex holds every road's samples, slots and rels in slot order, for
// a per-sample lookup by binary search.
type sampleIndex struct {
	slots [][]int32
	rels  [][]float32
}

func indexSamples(db *history.DB) *sampleIndex {
	ix := &sampleIndex{slots: make([][]int32, db.NumRoads()), rels: make([][]float32, db.NumRoads())}
	for r := range ix.slots {
		ix.slots[r] = seriesSlots(db, roadnet.RoadID(r))
		ix.rels[r] = db.Rels(roadnet.RoadID(r))
	}
	return ix
}

// relAt returns the road's rel at slot, and whether it has a sample there.
func (ix *sampleIndex) relAt(r roadnet.RoadID, slot int32) (float32, bool) {
	i, ok := slices.BinarySearch(ix.slots[r], slot)
	if !ok {
		return 0, false
	}
	return ix.rels[r][i], true
}

// checkSpecializeMatchesReference specializes m to seeds and holds every
// road's seed model to refTrainSeedRoad over the same candidates: the same
// feature seeds, imputed means and feature count k bit for bit, and a trio
// that passes compareTrio (the same fitted and unfitted classes with the
// same N, intercept, coefficients and RMSE within lineTol). A seed road
// holds no seed model.
func checkSpecializeMatchesReference(t *testing.T, m *Model, db *history.DB, seeds []roadnet.RoadID, candidates func(roadnet.RoadID) []roadnet.RoadID) {
	t.Helper()
	sm, err := m.Specialize(db, seeds, candidates)
	if err != nil {
		t.Fatal(err)
	}
	ix := indexSamples(db)
	var worst float64
	var fitted, shrunk int
	for r := range sm.roads {
		rid, got := roadnet.RoadID(r), &sm.roads[r]
		if sm.isSeed[rid] {
			if *got != (seedRoadModel{}) {
				t.Fatalf("seed road %d holds a seed model", r)
			}
			continue
		}
		cands := candidates(rid)
		want := refTrainSeedRoad(db, ix, rid, cands[:min(maxSeedCandidates, len(cands))], sm.isSeed)
		if got.k != len(want.feats) {
			t.Fatalf("road %d: %d features, reference %d", r, got.k, len(want.feats))
		}
		for i := range maxSeedFeatures {
			var f roadnet.RoadID
			var imp float64
			if i < got.k {
				f, imp = want.feats[i], want.impute[i]
			}
			if got.feats[i] != f || math.Float64bits(got.impute[i]) != math.Float64bits(imp) {
				t.Fatalf("road %d feature %d: seed %d imputed %v, reference %d imputed %v", r, i, got.feats[i], got.impute[i], f, imp)
			}
		}
		w, why := compareTrio(fitTrio(&got.trio, got.k), &want.trio)
		if why != "" {
			t.Fatalf("road %d (%d features): %s", r, got.k, why)
		}
		worst = max(worst, w)
		if got.k > 0 {
			fitted++
			shrunk += b2i(got.k < min(maxSeedFeatures, want.scored))
		}
	}
	if fitted == 0 {
		t.Fatal("no road fitted a seed model; the test checks nothing")
	}
	t.Logf("%d seeds: %d roads' seed models within %.3g of the three-pass reference (bound %g), %d of them with fewer features than scored seeds",
		len(seeds), fitted, worst, lineTol, shrunk)
}

// everyNth returns every nth road of n as a seed.
func everyNth(n, stride int) []roadnet.RoadID {
	var seeds []roadnet.RoadID
	for r := 0; r < n; r += stride {
		seeds = append(seeds, roadnet.RoadID(r))
	}
	return seeds
}

// TestSpecializeMatchesReference: on the golden city with every tenth road a
// seed, as TestTrainGolden specializes it, every road's seed model from the
// aligned walk and the one-pass sums is the three-pass reference's
// (checkSpecializeMatchesReference).
func TestSpecializeMatchesReference(t *testing.T) {
	d, g, cfg := goldenCity(t)
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := everyNth(m.NumRoads(), 10)
	checkSpecializeMatchesReference(t, m, d.DB, seeds, nearestSeeds(seeds))
}

// TestSpecializeMatchesReferenceServedCity is TestSpecializeMatchesReference
// on the served city, with every 22nd, 10th and 5th road a seed (41, 89 and
// 177 seeds) and the served candidates (SeedCandidates). With the city built it takes
// about two seconds, far longer under the race detector, so it is skipped
// there; CI runs it in a non-race step.
func TestSpecializeMatchesReferenceServedCity(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; CI runs it without -race")
	}
	d, g, cfg := servedCity(t)
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stride := range []int{22, 10, 5} {
		seeds := everyNth(m.NumRoads(), stride)
		checkSpecializeMatchesReference(t, m, d.DB, seeds, SeedCandidates(d.Net, seeds))
	}
}
