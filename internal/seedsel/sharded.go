package seedsel

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/par"
	"repro/internal/roadnet"
)

// ShardProblem is one district's slice of a sharded selection: the district's
// prepared Problem (over its local road-ID space) and the candidate roads
// selection may pick there. Candidates are the district's *owned* roads —
// halo roads appear in neighbouring problems too, and picking them twice
// would buy the same observation twice. For the decomposition to stay
// submodular-exact the problem's benefit weights must also zero the halo
// roads (see core's sharded build), making the per-district objectives
// disjoint: the global objective is then their sum.
type ShardProblem struct {
	Problem    *Problem
	Candidates []roadnet.RoadID
}

// ShardedPick is one selected seed: the index of the shard in the input
// slice, and the chosen road in that shard's local ID space.
type ShardedPick struct {
	Shard int
	Road  roadnet.RoadID
}

// SelectShardedCtx runs lazy greedy (CELF) across district shards: each shard
// keeps its own max-heap of (possibly stale) marginal gains over its
// candidates, filled in parallel, and the outer loop repeatedly takes the
// globally best fresh top. Because the shard objectives are disjoint
// (candidates owned, halo weights zeroed), a pick in one shard never stales
// another shard's heap — the merged sequence is exactly the greedy sequence
// on the summed objective, so the (1−1/e) approximation guarantee of the
// unsharded selector carries over to the block-diagonal objective.
//
// Ties on gain break toward the lower shard index, then the lower road ID
// (the per-shard heap order), keeping the result deterministic. Cancellation
// is polled during the heap fills and on every merge iteration; a cancelled
// run returns no partial result.
func SelectShardedCtx(ctx context.Context, shards []ShardProblem, k int) ([]ShardedPick, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("seedsel: sharded selection needs at least one shard")
	}
	total := 0
	for i, sp := range shards {
		if sp.Problem == nil {
			return nil, fmt.Errorf("seedsel: shard %d has no problem", i)
		}
		for _, c := range sp.Candidates {
			if int(c) < 0 || int(c) >= sp.Problem.NumRoads() {
				return nil, fmt.Errorf("seedsel: shard %d candidate %d outside [0,%d)", i, c, sp.Problem.NumRoads())
			}
		}
		total += len(sp.Candidates)
	}
	if k < 1 || k > total {
		return nil, fmt.Errorf("seedsel: budget %d outside [1, %d]", k, total)
	}

	// Per-shard selection state: the uncovered vector and the gain heap over
	// the shard's candidates. Heaps fill in parallel — the fill is the
	// O(candidates · influence) part of the run.
	uncovered := make([][]float64, len(shards))
	heaps := make([]lazyHeap, len(shards))
	//lint:hotpath-ok one task closure per heap-fill fan-out (a handful of shards, each doing O(candidates·influence) work); EachCtx's task-level API takes a closure by design
	if err := par.EachCtx(ctx, len(shards), 0, func(i int) error {
		p := shards[i].Problem
		uncovered[i] = p.newUncovered()
		h := make(lazyHeap, 0, len(shards[i].Candidates))
		for j, c := range shards[i].Candidates {
			if j%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("seedsel: sharded greedy cancelled during heap fill: %w", err)
				}
			}
			h = append(h, lazyItem{road: c, gain: p.gain(uncovered[i], c), round: 0})
		}
		heap.Init(&h)
		heaps[i] = h
		return nil
	}); err != nil {
		return nil, err
	}

	picks := make([]ShardedPick, 0, k)
	applied := make([]int, len(shards)) // picks applied per shard = its freshness round
	reevals := 0
	for len(picks) < k {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("seedsel: sharded greedy cancelled with %d/%d seeds chosen: %w", len(picks), k, err)
		}
		// The globally best top across shards; a strictly-greater comparison
		// keeps the lowest shard index on gain ties.
		best := -1
		for i := range heaps {
			if heaps[i].Len() == 0 {
				continue
			}
			if best == -1 || heaps[i].Peek().gain > heaps[best].Peek().gain {
				best = i
			}
		}
		if best == -1 {
			break
		}
		top := heaps[best].Peek()
		if top.round == applied[best] {
			heap.Pop(&heaps[best])
			shards[best].Problem.apply(uncovered[best], top.road)
			picks = append(picks, ShardedPick{Shard: best, Road: top.road})
			applied[best]++
			continue
		}
		// Stale within its own shard (earlier picks there): recompute and
		// reorder, exactly as the unsharded lazy loop does.
		top.gain = shards[best].Problem.gain(uncovered[best], top.road)
		top.round = applied[best]
		heaps[best].ReplaceTop(top)
		reevals++
	}
	lazySelections.Inc()
	lazyReevaluations.Add(float64(reevals))
	lazyLastK.Set(float64(k))
	lazyLastReevals.Set(float64(reevals))
	return picks, nil
}
