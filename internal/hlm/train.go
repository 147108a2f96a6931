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
//     the per-slot tables growing with the slot range;
//   - a levelTable renumbers one pooling level's group IDs densely and sums
//     the rel deviations per (group, slot), reused level after level;
//   - regressions fill the trainer's reusable x/y buffers.

// fit trains the roads marked in refit, every road when refit is nil, and
// takes the others' trained state from old. Train and Retrain share it, so a
// re-fit road trains exactly as Train would train it.
func fit(old *Model, graph *corr.Graph, db *history.DB, cfg Config, refit []bool) *Model {
	m := &Model{cfg: cfg, graph: graph, roads: make([]roadModel, graph.NumRoads()), levels: cfg.Levels}
	t := trainer{cfg: cfg}
	for r := range m.roads {
		if refit != nil && !refit[r] {
			m.roads[r] = old.roads[r]
			continue
		}
		m.roads[r] = t.road(graph, db, roadnet.RoadID(r))
	}
	if len(cfg.Levels) == 0 {
		return m
	}
	ranks := db.SlotRanks()
	var lt levelTable
	for l, groups := range cfg.Levels {
		lt.aggregate(db, ranks, groups)
		for r := range m.roads {
			if refit == nil || refit[r] {
				m.roads[r].levelPairs[l] = t.levelPair(db, ranks, &lt, roadnet.RoadID(r))
			}
		}
	}
	return m
}

// trainer carries the training configuration and its reusable buffers.
type trainer struct {
	cfg Config
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

	// Pairwise regressions against the strongest-agreeing neighbours.
	candidates := graph.Neighbors(r)
	k := min(t.cfg.MaxNeighbors, len(candidates))
	if k > 0 {
		rm.neighbors = make([]roadnet.RoadID, 0, k)
		rm.pairs = make([]pairModel, 0, k)
	}
	for _, e := range candidates[:k] {
		x, y := t.x[:0], t.y[:0]
		db.CoObserved(r, e.To, func(_ int32, relR, relNb float32) {
			x = append(x, float64(relNb))
			y = append(y, float64(relR))
		})
		t.x, t.y = x, y
		pm, ok := t.fitTrend(x, 1, y, t.cfg.MinSamples, t.cfg.Lambda)
		if !ok {
			continue
		}
		rm.neighbors = append(rm.neighbors, e.To)
		rm.pairs = append(rm.pairs, pm)
	}
	rm.levelPairs = make([]*pairModel, len(t.cfg.Levels))
	return rm
}

// levelPair fits road r's group-level predictor: its rel from the mean
// deviation of the other observed roads in its group, per slot. Slots where
// fewer than three other group members were observed are skipped.
func (t *trainer) levelPair(db *history.DB, ranks *history.SlotRanks, lt *levelTable, r roadnet.RoadID) *pairModel {
	base, rank := int(lt.group[r])*lt.numSlots, ranks.Road(r)
	x, y := t.x[:0], t.y[:0]
	for k, rel := range db.Rels(r) {
		cell := base + int(rank[k])
		n := lt.cnt[cell]
		if n < 4 {
			continue
		}
		dev := float64(rel) - 1
		x = append(x, (lt.sum[cell]-dev)/float64(n-1))
		y = append(y, float64(rel))
	}
	t.x, t.y = x, y
	pm, ok := t.fitTrend(x, 1, y, t.cfg.MinSamples, t.cfg.Lambda)
	if !ok {
		return nil
	}
	return &pm
}

// fitBuf holds the reusable design and response buffers of one training
// loop; it is not safe for concurrent use.
type fitBuf struct {
	x, y                   []float64
	upX, upY, downX, downY []float64
}

// fitTrend fits the trend-conditioned regressions of y on the row-major n×p
// design x: pooled over every row, and up (y ≥ 1) and down (y < 1) over the
// matching rows when each class holds at least minSamples/2 of them. ok is
// false when fewer than minSamples rows exist or the pooled fit fails.
func (b *fitBuf) fitTrend(x []float64, p int, y []float64, minSamples int, lambda float64) (pm pairModel, ok bool) {
	if len(y) < minSamples {
		return pairModel{}, false
	}
	if pm.pooled = fitOrNil(x, p, y, lambda); pm.pooled == nil {
		return pairModel{}, false
	}
	upX, upY, downX, downY := b.upX[:0], b.upY[:0], b.downX[:0], b.downY[:0]
	for i, v := range y {
		// Element-wise copies: the rows are a few values long, too short
		// for a memmove call to pay.
		if v >= 1 {
			for _, xv := range x[i*p : (i+1)*p] {
				upX = append(upX, xv)
			}
			upY = append(upY, v)
		} else {
			for _, xv := range x[i*p : (i+1)*p] {
				downX = append(downX, xv)
			}
			downY = append(downY, v)
		}
	}
	b.upX, b.upY, b.downX, b.downY = upX, upY, downX, downY
	if len(upY) >= minSamples/2 {
		pm.up = fitOrNil(upX, p, upY, lambda)
	}
	if len(downY) >= minSamples/2 {
		pm.down = fitOrNil(downX, p, downY, lambda)
	}
	return pm, true
}

func fitOrNil(x []float64, p int, y []float64, lambda float64) *linalg.RidgeModel {
	m, err := linalg.RidgeFit(x, p, y, lambda)
	if err != nil {
		return nil
	}
	return m
}

// levelTable aggregates one pooling level: the sum and count of observed
// rel deviations per (group, slot), at cell group·numSlots + slot rank.
// Groups are the level's distinct IDs renumbered densely in ascending
// order, so any group ID an int holds is its own group. Memory is distinct
// slots × groups; the buffers are reused from level to level.
type levelTable struct {
	numSlots int
	group    []int32 // dense group of every road
	ids      []int   // the level's distinct group IDs, ascending
	sum      []float64
	cnt      []int32
}

// aggregate rebuilds the table for one level's group assignment.
func (lt *levelTable) aggregate(db *history.DB, ranks *history.SlotRanks, groups []int) {
	lt.ids = append(lt.ids[:0], groups...)
	slices.Sort(lt.ids)
	lt.ids = slices.Compact(lt.ids)
	lt.group = lt.group[:0]
	for _, g := range groups {
		i, _ := slices.BinarySearch(lt.ids, g)
		lt.group = append(lt.group, int32(i))
	}
	lt.numSlots = ranks.NumSlots()
	size := len(lt.ids) * lt.numSlots
	if cap(lt.sum) < size {
		lt.sum, lt.cnt = make([]float64, size), make([]int32, size)
	} else {
		lt.sum, lt.cnt = lt.sum[:size], lt.cnt[:size]
		clear(lt.sum)
		clear(lt.cnt)
	}
	for r := range groups {
		base, rank := int(lt.group[r])*lt.numSlots, ranks.Road(roadnet.RoadID(r))
		for k, rel := range db.Rels(roadnet.RoadID(r)) {
			cell := base + int(rank[k])
			lt.sum[cell] += float64(rel) - 1
			lt.cnt[cell]++
		}
	}
}
