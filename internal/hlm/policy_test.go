package hlm

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// refSeedCandidates is SeedCandidates as it was before it kept its lists in
// fixed arrays, kept as the reference: it sorts every seed and every
// same-class seed by distance and then ID for each road, and dedups the
// two lists' heads with a map.
func refSeedCandidates(net *roadnet.Network, seeds []roadnet.RoadID) func(roadnet.RoadID) []roadnet.RoadID {
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

// checkSeedCandidatesMatchScan holds SeedCandidates to the sorting
// reference on every road for random seed sets of k ∈ {1, 10, 40, 200, all
// roads} roads, and for one set that names seeds twice.
func checkSeedCandidatesMatchScan(t *testing.T, net *roadnet.Network) {
	t.Helper()
	n := net.NumRoads()
	rng := rand.New(rand.NewSource(int64(n)))
	var sets [][]roadnet.RoadID
	for _, k := range []int{1, 10, 40, 200, n} {
		seeds := make([]roadnet.RoadID, 0, min(k, n))
		for _, r := range rng.Perm(n)[:min(k, n)] {
			seeds = append(seeds, roadnet.RoadID(r))
		}
		sets = append(sets, seeds)
	}
	twice := slices.Clone(sets[2])
	sets = append(sets, append(twice, sets[2][:20]...))
	for _, seeds := range sets {
		got, want := SeedCandidates(net, seeds), refSeedCandidates(net, seeds)
		for r := 0; r < n; r++ {
			id := roadnet.RoadID(r)
			if g, w := got(id), want(id); !slices.Equal(g, w) {
				t.Fatalf("%d roads, %d seeds, road %d: candidates %v, reference %v", n, len(seeds), r, g, w)
			}
		}
	}
}

// TestSeedCandidatesMatchScan: on the golden city the bounded provider
// returns the sorting reference's candidates, in its order, on every road.
func TestSeedCandidatesMatchScan(t *testing.T) {
	d, _, _ := goldenCity(t)
	checkSeedCandidatesMatchScan(t, d.Net)
}

// TestSeedCandidatesMatchScanServedCity is TestSeedCandidatesMatchScan on
// the served city. Building the city is slow under the race detector, so
// it is skipped there; CI runs it in a non-race step.
func TestSeedCandidatesMatchScanServedCity(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; CI runs it without -race")
	}
	d, _, _ := servedCity(t)
	checkSeedCandidatesMatchScan(t, d.Net)
}
