package hlm

import (
	"math"
	"slices"

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
//   - a levelTable renumbers every pooling level's group IDs densely and
//     sums the rel deviations per (level, group, slot), all levels in one
//     road-major pass;
//   - regressions fill the trainer's reusable x/y buffers.

// fit trains the roads marked in refit, every road when refit is nil, and
// takes the others' trained state from old. Train and Retrain share it, so a
// re-fit road trains exactly as Train would train it.
func fit(old *Model, graph *corr.Graph, db *history.DB, levels [][]int, refit []bool) *Model {
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

// trainer carries one training loop's reusable buffers.
type trainer struct {
	numLevels int
	rank      []int32 // the slot ranks of the road being fit
	fitBuf
}

// road fits one road's prior moments and pairwise regressions; its level
// predictors are filled in level by level afterwards.
func (t *trainer) road(graph *corr.Graph, db *history.DB, r roadnet.RoadID) roadModel {
	rm := roadModel{expRelUp: 1, expRelDown: 1, expRelAll: 1, varUp: 0.02, varDown: 0.02, varAll: 0.04}

	// Trend-conditioned prior moments from the road's own series.
	var upSum, upSq, downSum, downSq float64
	var upN, downN int
	for _, rel := range db.Rels(r) {
		v := float64(rel)
		if rel >= 1 {
			upSum += v
			upSq += v * v
			upN++
		} else {
			downSum += v
			downSq += v * v
			downN++
		}
	}
	if upN+downN > 1 {
		total := float64(upN + downN)
		rm.expRelAll = (upSum + downSum) / total
		rm.varAll = math.Max((upSq+downSq)/total-rm.expRelAll*rm.expRelAll, 1e-4)
	}
	if upN > 1 {
		rm.expRelUp = upSum / float64(upN)
		rm.varUp = math.Max(upSq/float64(upN)-rm.expRelUp*rm.expRelUp, 1e-4)
	}
	if downN > 1 {
		rm.expRelDown = downSum / float64(downN)
		rm.varDown = math.Max(downSq/float64(downN)-rm.expRelDown*rm.expRelDown, 1e-4)
	}

	// Pairwise regressions against the strongest-agreeing neighbours,
	// fitted on the stack and then copied into exactly sized slices.
	var neighbors [maxNeighbors]roadnet.RoadID
	var pairs [maxNeighbors]trio[linalg.Line]
	k := 0
	candidates := graph.Neighbors(r)
	for _, e := range candidates[:min(maxNeighbors, len(candidates))] {
		x, y := t.x[:0], t.y[:0]
		db.CoObserved(r, e.To, func(_ int32, relR, relNb float32) {
			x = append(x, float64(relNb))
			y = append(y, float64(relR))
		})
		t.x, t.y = x, y
		pm, ok := fitTrend(&t.fitBuf, x, 1, y, minSamples, lambda, fitLine)
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
	x, y := t.x[:0], t.y[:0]
	for k, rel := range db.Rels(r) {
		cell := base + int(t.rank[k])
		n := lt.cnt[cell]
		if n < 4 {
			continue
		}
		dev := float64(rel) - 1
		x = append(x, (lt.sum[cell]-dev)/float64(n-1))
		y = append(y, float64(rel))
	}
	t.x, t.y = x, y
	pm, _ := fitTrend(&t.fitBuf, x, 1, y, minSamples, lambda, fitLine)
	return pm
}

// fitBuf holds the reusable design and response buffers of one training
// loop; it is not safe for concurrent use.
type fitBuf struct {
	x, y                   []float64
	upX, upY, downX, downY []float64
}

// fitTrend fits the trend-conditioned regressions of y on the row-major n×p
// design x with fit: pooled over every row, and up (y ≥ 1) and down (y < 1)
// over the matching rows when each class holds at least minSamples/2 of
// them; a class that is scarcer or fails to fit is left zero. ok is false,
// and the trio zero, when fewer than minSamples rows exist or the pooled fit
// fails. fit is linalg.RidgeFit or, for one feature stored by value,
// fitLine.
func fitTrend[M comparable](b *fitBuf, x []float64, p int, y []float64, minSamples int, lambda float64,
	fit func(x []float64, p int, y []float64, lambda float64) (M, error)) (pm trio[M], ok bool) {
	n := len(y)
	if n < minSamples {
		return pm, false
	}
	var err error
	if pm.pooled, err = fit(x, p, y, lambda); err != nil {
		return trio[M]{}, false
	}
	b.upX, b.downX = resize(b.upX, n*p), resize(b.downX, n*p)
	b.upY, b.downY = resize(b.upY, n), resize(b.downY, n)
	nUp := partition(x, p, y, b.upX, b.upY, b.downX, b.downY)
	if nUp >= minSamples/2 {
		if m, err := fit(b.upX[:nUp*p], p, b.upY[:nUp], lambda); err == nil {
			pm.up = m
		}
	}
	if n-nUp >= minSamples/2 {
		if m, err := fit(b.downX[:(n-nUp)*p], p, b.downY[:n-nUp], lambda); err == nil {
			pm.down = m
		}
	}
	return pm, true
}

// fitLine is linalg.RidgeLine in linalg.RidgeFit's signature, for fitTrend;
// p is always 1.
func fitLine(x []float64, _ int, y []float64, lambda float64) (linalg.Line, error) {
	return linalg.RidgeLine(x, y, lambda)
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

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resize returns buf with length n, reallocating only when it is too short.
func resize(buf []float64, n int) []float64 { return slices.Grow(buf[:0], n)[:n] }

// levelTable aggregates every pooling level: the sum and count of observed
// rel deviations per (level, group, slot). A level's groups are its distinct
// IDs renumbered densely in ascending order, so any group ID an int holds is
// its own group, and road r's cells at level l start at bases[l·numRoads+r]
// and run over the slot ranks. Memory is distinct slots × the levels' groups
// summed.
type levelTable struct {
	numRoads int
	bases    []int // first cell of each (level, road)
	sum      []float64
	cnt      []int32
}

// base returns the first cell of road r's group at level l.
func (lt *levelTable) base(l int, r roadnet.RoadID) int { return lt.bases[l*lt.numRoads+int(r)] }

// aggregate builds the table for the levels' group assignments in one pass
// over the roads, each cell summed in ascending road order. It computes
// each road's slot ranks in rank and returns the buffer.
func (lt *levelTable) aggregate(db *history.DB, ranks *history.SlotRanks, levels [][]int, rank []int32) []int32 {
	numSlots := ranks.NumSlots()
	lt.numRoads = db.NumRoads()
	lt.bases = make([]int, 0, len(levels)*lt.numRoads)
	var ids []int
	size := 0
	for _, groups := range levels {
		ids = append(ids[:0], groups...)
		slices.Sort(ids)
		ids = slices.Compact(ids)
		for _, g := range groups {
			i, _ := slices.BinarySearch(ids, g)
			lt.bases = append(lt.bases, size+i*numSlots)
		}
		size += len(ids) * numSlots
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
