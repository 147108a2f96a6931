package hlm

import (
	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/roadnet"
)

// Training reads each road's history series many times: once for its prior
// moments, once per regression neighbour and once per pooling level. What it
// derives lives in flat arrays built once per Train or Retrain call, so
// fitting does no hashing and no allocation per history sample:
//
//   - history.SlotRanks places every history sample among the distinct
//     slots the history holds, so slots may sit anywhere below 2³¹ without
//     the per-slot tables growing with the slot range. It holds one entry
//     per 64-slot window, and a road's ranks are computed into the
//     trainer's reusable buffer when needed: once per road to aggregate,
//     and once per re-fit road to fit all its level predictors;
//   - a levelTable sums the rel deviations per (level, group, slot) over
//     the groups Train numbered, all levels in one road-major pass;
//   - each regression's rows go straight into its trioSums as the walk that
//     finds them meets them, so no row is buffered and each trend class is
//     solved from its sums.

// fit trains the roads marked in refit, every road when refit is nil, and
// takes the others' trained state from old. Train and Retrain share it, so a
// re-fit road trains exactly as Train would train it.
func fit(old *Model, graph *corr.Graph, db *history.DB, levels []poolLevel, refit []bool) *Model {
	m := &Model{graph: graph, roads: make([]roadModel, graph.NumRoads()), levels: levels}
	t := trainer{numLevels: len(levels)}
	var ranks *history.SlotRanks
	var lt levelTable
	if len(levels) > 0 {
		ranks = db.SlotRanks()
		t.rank = lt.aggregate(db, ranks, levels, t.rank)
	}
	for r := range m.roads {
		if refit != nil && !refit[r] {
			m.roads[r] = old.roads[r]
			continue
		}
		rid := roadnet.RoadID(r)
		m.roads[r] = t.road(graph, db, rid)
		if ranks == nil {
			continue
		}
		t.rank = ranks.Road(rid, t.rank)
		for l := range levels {
			m.roads[r].levelPairs[l] = t.levelPair(db, &lt, l, rid)
		}
	}
	return m
}

// trainer carries one training loop's reusable buffer.
type trainer struct {
	numLevels int
	rank      []int32 // the slot ranks of the road being fit
}

// road fits one road's prior moments and pairwise regressions; its level
// predictors are filled in level by level afterwards.
func (t *trainer) road(graph *corr.Graph, db *history.DB, r roadnet.RoadID) roadModel {
	rm := roadModel{expRelUp: 1, expRelDown: 1, expRelAll: 1}

	// Trend-conditioned prior means from the road's own series.
	var upSum, downSum float64
	var upN, downN int
	for _, rel := range db.Rels(r) {
		v := float64(rel)
		if rel >= 1 {
			upSum += v
			upN++
		} else {
			downSum += v
			downN++
		}
	}
	if upN+downN > 1 {
		rm.expRelAll = (upSum + downSum) / float64(upN+downN)
	}
	if upN > 1 {
		rm.expRelUp = upSum / float64(upN)
	}
	if downN > 1 {
		rm.expRelDown = downSum / float64(downN)
	}

	// Pairwise regressions against the strongest-agreeing neighbours,
	// fitted on the stack and then copied into exactly sized slices.
	var neighbors [maxNeighbors]roadnet.RoadID
	var pairs [maxNeighbors]trio[linalg.Line]
	k := 0
	candidates := graph.Neighbors(r)
	for _, e := range candidates[:min(maxNeighbors, len(candidates))] {
		var sums trioSums
		db.CoObserved(r, e.To, func(_ int32, relR, relNb float32) {
			sums.add(float64(relNb), float64(relR))
		})
		pm, ok := sums.fit()
		if !ok {
			continue
		}
		neighbors[k], pairs[k] = e.To, pm
		k++
	}
	if k > 0 {
		rm.neighbors = append(make([]roadnet.RoadID, 0, k), neighbors[:k]...)
		rm.pairs = append(make([]trio[linalg.Line], 0, k), pairs[:k]...)
	}
	rm.levelPairs = make([]trio[linalg.Line], t.numLevels)
	return rm
}

// levelPair fits road r's level-l group predictor: its rel from the mean
// deviation of the other observed roads in its group, per slot. t.rank must
// hold r's slot ranks. Slots where fewer than three other group members were
// observed are skipped; the trio is unfitted when too few slots remain.
func (t *trainer) levelPair(db *history.DB, lt *levelTable, l int, r roadnet.RoadID) trio[linalg.Line] {
	base := lt.base(l, r)
	var sums trioSums
	for k, rel := range db.Rels(r) {
		cell := base + int(t.rank[k])
		n := lt.cnt[cell]
		if n < 4 {
			continue
		}
		dev := float64(rel) - 1
		sums.add((lt.sum[cell]-dev)/float64(n-1), float64(rel))
	}
	pm, _ := sums.fit()
	return pm
}

// trioSums gathers a one-feature trio's rows in one pass: the shifted sums
// of its down rows (y < 1) at index 0 and of its up rows at index 1. Which
// class a row joins is a coin flip, so there is no branch on it.
type trioSums [2]linalg.LineSums

func (s *trioSums) add(x, y float64) { s[b2i(y >= 1)].Add(x, y) }

// fit solves the trio: pooled over every row, and up and down over each
// class's rows when the class holds at least minSamples/2 of them; a class
// that is scarcer or fails to fit is left zero. ok is false, and the trio
// zero, when fewer than minSamples rows exist or the pooled fit fails.
func (s *trioSums) fit() (pm trio[linalg.Line], ok bool) {
	pooled := s[0]
	pooled.Merge(&s[1])
	if pooled.N() < minSamples {
		return pm, false
	}
	var err error
	if pm.pooled, err = pooled.Line(lambda); err != nil {
		return trio[linalg.Line]{}, false
	}
	if s[1].N() >= minSamples/2 {
		pm.up, _ = s[1].Line(lambda) // the zero Line on failure
	}
	if s[0].N() >= minSamples/2 {
		pm.down, _ = s[0].Line(lambda)
	}
	return pm, true
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// levelTable aggregates every pooling level: the sum and count of observed
// rel deviations per (level, group, slot). Road r's cells at level l start
// at bases[l·numRoads+r], its group's first cell, and run over the slot
// ranks. Memory is distinct slots × the levels' groups summed.
type levelTable struct {
	numRoads int
	bases    []int // first cell of each (level, road)
	sum      []float64
	cnt      []int32
}

// base returns the first cell of road r's group at level l.
func (lt *levelTable) base(l int, r roadnet.RoadID) int { return lt.bases[l*lt.numRoads+int(r)] }

// aggregate builds the table for the numbered levels in one pass over the
// roads, each cell summed in ascending road order. It computes each road's
// slot ranks in rank and returns the buffer.
func (lt *levelTable) aggregate(db *history.DB, ranks *history.SlotRanks, levels []poolLevel, rank []int32) []int32 {
	numSlots := ranks.NumSlots()
	lt.numRoads = db.NumRoads()
	lt.bases = make([]int, 0, len(levels)*lt.numRoads)
	size := 0
	for _, lv := range levels {
		for _, g := range lv.group {
			lt.bases = append(lt.bases, size+int(g)*numSlots)
		}
		size += lv.numGroups * numSlots
	}
	lt.sum, lt.cnt = make([]float64, size), make([]int32, size)
	for r := range lt.numRoads {
		rid := roadnet.RoadID(r)
		rels := db.Rels(rid)
		rank = ranks.Road(rid, rank)
		for l := range levels {
			base := lt.base(l, rid)
			for k, rel := range rels {
				cell := base + int(rank[k])
				lt.sum[cell] += float64(rel) - 1
				lt.cnt[cell]++
			}
		}
	}
	return rank
}
