package hlm

import (
	"cmp"
	"slices"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// The two policies below are the served configuration's HLM design
// decisions: how training pools roads into groups, and which seeds
// specialisation scores for each road. core builds every view with them.

// PoolingLevels builds the pooled groupings the served model trains with
// (Config.Levels) for a network: road class, the whole city, and spatial
// cells at three nested scales. Same-class roads co-move city-wide,
// congestion is spatially smooth, and the whole city carries global demand
// swings; the nested scales let the inverse-variance combiner use the finest
// area that actually contains seeds.
func PoolingLevels(net *roadnet.Network) [][]int {
	n := net.NumRoads()
	class := make([]int, n)
	city := make([]int, n)
	levels := [][]int{class, city}
	bounds := net.Bounds()
	for _, cell := range []float64{600, 1200, 2400} {
		area := make([]int, n)
		cols := int(bounds.Width()/cell) + 1
		for r := 0; r < n; r++ {
			road := net.Road(roadnet.RoadID(r))
			mid := road.Geometry.At(road.Length() / 2)
			cx := int((mid.X - bounds.Min.X) / cell)
			cy := int((mid.Y - bounds.Min.Y) / cell)
			area[r] = cy*cols + cx
		}
		levels = append(levels, area)
	}
	for r := 0; r < n; r++ {
		class[r] = int(net.Road(roadnet.RoadID(r)).Class)
	}
	return levels
}

// SeedCandidates returns the provider of correlation-scoring candidates the
// served model specialises with (Specialize's candidates): for a road, the
// eight seeds nearest its midpoint, then the six nearest seeds of its own
// class not among them (same-class roads co-move even when far apart).
func SeedCandidates(net *roadnet.Network, seeds []roadnet.RoadID) func(roadnet.RoadID) []roadnet.RoadID {
	type seedPos struct {
		id    roadnet.RoadID
		pos   geo.Point
		class roadnet.RoadClass
	}
	positions := make([]seedPos, len(seeds))
	for i, s := range seeds {
		road := net.Road(s)
		positions[i] = seedPos{id: s, pos: road.Geometry.At(road.Length() / 2), class: road.Class}
	}
	return func(r roadnet.RoadID) []roadnet.RoadID {
		road := net.Road(r)
		mid := road.Geometry.At(road.Length() / 2)
		type cand struct {
			id   roadnet.RoadID
			dist float64
		}
		var all, same []cand
		for _, sp := range positions {
			c := cand{id: sp.id, dist: mid.Dist(sp.pos)}
			all = append(all, c)
			if sp.class == road.Class {
				same = append(same, c)
			}
		}
		byDist := func(a, b cand) int {
			return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.id, b.id))
		}
		slices.SortFunc(all, byDist)
		slices.SortFunc(same, byDist)
		seen := map[roadnet.RoadID]bool{}
		var out []roadnet.RoadID
		take := func(cs []cand, n int) {
			for i := 0; i < len(cs) && i < n; i++ {
				if !seen[cs[i].id] {
					seen[cs[i].id] = true
					out = append(out, cs[i].id)
				}
			}
		}
		take(all, 8)
		take(same, 6)
		return out
	}
}
