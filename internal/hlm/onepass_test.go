package hlm

import (
	"testing"

	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/roadnet"
)

// checkTriosMatchThreePass refits every pair and level trio that Train kept
// in m with the three-pass reference that trained them before the one-pass
// sums: the rows gathered into buffers, partitioned by class and each class
// fitted by linalg.RidgeFit, whose one-feature path is ridgeLine (fitTrend).
// Each trio must pass compareTrio: within lineTol, with an equal N and the
// same fitted or unfitted outcome for each class. A candidate neighbour
// that Train skipped must be one the reference leaves unfitted too.
func checkTriosMatchThreePass(t *testing.T, m *Model, db *history.DB, levels [][]int) {
	t.Helper()
	var b fitBuf
	var x, y []float64
	// check fits the rows in x and y with the reference, holds got to it
	// and reports whether the reference fitted them.
	check := func(what string, r, k int, got *trio[linalg.Line]) (worst float64, fitted bool) {
		want, ok := fitTrend(&b, x, 1, y, minSamples, lambda)
		worst, why := compareTrio(got, &want)
		if why != "" {
			t.Fatalf("road %d %s %d: %s", r, what, k, why)
		}
		return worst, ok
	}

	var lt levelTable
	ranks := db.SlotRanks()
	rank := lt.aggregate(db, ranks, levels, nil)
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
		for l := range levels {
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
	checkTriosMatchThreePass(t, m, d.DB, cfg.Levels)
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
	checkTriosMatchThreePass(t, m, d.DB, cfg.Levels)
}
