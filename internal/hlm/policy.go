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
// Distance ties go to the lower road ID. Each list is kept in a fixed array
// as the seeds stream past, so a road costs one pass over the seeds, with
// no sort and no map.
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
		var near [8]seedDist
		var same [6]seedDist
		nNear, nSame := 0, 0
		for _, sp := range positions {
			c := seedDist{id: sp.id, dist: mid.Dist(sp.pos)}
			nNear = keepNearest(near[:], nNear, c)
			if sp.class == road.Class {
				nSame = keepNearest(same[:], nSame, c)
			}
		}
		out := make([]roadnet.RoadID, 0, nNear+nSame)
		take := func(cs []seedDist) {
			for _, c := range cs {
				if !slices.Contains(out, c.id) {
					out = append(out, c.id)
				}
			}
		}
		take(near[:nNear])
		take(same[:nSame])
		return out
	}
}

// seedDist is a seed at its distance from a road.
type seedDist struct {
	id   roadnet.RoadID
	dist float64
}

// before orders seeds by distance, then by ID, as cmp.Compare orders the
// distances.
func (a seedDist) before(b seedDist) bool {
	if c := cmp.Compare(a.dist, b.dist); c != 0 {
		return c < 0
	}
	return a.id < b.id
}

// keepNearest inserts c into the ascending list cs[:n] of the nearest seeds
// met so far, dropping the farthest when len(cs) are kept, and returns the
// list's new length.
func keepNearest(cs []seedDist, n int, c seedDist) int {
	if n == len(cs) {
		if !c.before(cs[n-1]) {
			return n
		}
		n--
	}
	i := n
	for ; i > 0 && c.before(cs[i-1]); i-- {
		cs[i] = cs[i-1]
	}
	cs[i] = c
	return n + 1
}
