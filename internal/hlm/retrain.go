package hlm

import (
	"fmt"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/roadnet"
)

// Retrain fits a model for an updated history by re-fitting only the roads
// the delta can reach and copying every other road's trained state from old.
// dirty[r] marks the roads whose history series changed since old was
// trained (history.Builder.Dirty reports exactly this set); graph is the
// correlation graph over the new history (corr.Rescore output).
//
// A road must be re-fit when its training inputs changed:
//
//   - it is dirty (its own series feeds the prior moments, every pairwise
//     regression response, and the level predictors), or
//   - its regression neighbour list — the first MaxNeighbors entries of its
//     correlation list — differs from old's (re-scored agreements can
//     reorder or replace them), or
//   - any regression neighbour is dirty (the pair's co-observed samples
//     changed).
//
// Re-fit roads train exactly as Train would over the new inputs. Copied
// roads share their roadModel with old — roadModels are immutable after
// training — and are *approximately* what Train would produce: their
// pairwise regressions and prior moments are bitwise identical (they depend
// only on clean series), but their group-level predictors were fit against
// the old history's group aggregates, which dirty group-mates have since
// shifted. That staleness is the only divergence from a from-scratch Train
// and is what core's incremental-vs-full equivalence bound covers.
//
// Cost: the per-level group aggregates are recomputed from the new history
// (unavoidable — a dirty road perturbs its groups' means for everyone), and
// road fitting is proportional to the affected set, not the city.
func Retrain(old *Model, graph *corr.Graph, db *history.DB, dirty []bool) (*Model, error) {
	cfg := old.cfg
	n := old.NumRoads()
	if graph.NumRoads() != n || db.NumRoads() != n {
		return nil, fmt.Errorf("hlm: retrain over %d-road model, %d-road graph, %d-road history", n, graph.NumRoads(), db.NumRoads())
	}
	if len(dirty) != n {
		return nil, fmt.Errorf("hlm: dirty mask covers %d roads, want %d", len(dirty), n)
	}

	affected := make([]bool, n)
	for r := 0; r < n; r++ {
		if dirty[r] {
			affected[r] = true
			continue
		}
		rid := roadnet.RoadID(r)
		oldNbs := old.graph.Neighbors(rid)
		newNbs := graph.Neighbors(rid)
		kOld := min(cfg.MaxNeighbors, len(oldNbs))
		kNew := min(cfg.MaxNeighbors, len(newNbs))
		if kOld != kNew {
			affected[r] = true
			continue
		}
		for i := 0; i < kNew; i++ {
			if oldNbs[i].To != newNbs[i].To || dirty[newNbs[i].To] {
				affected[r] = true
				break
			}
		}
	}

	if err := checkLevels(cfg, n); err != nil {
		return nil, err
	}
	return fit(old, graph, db, cfg, affected), nil
}
