package corr

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/history"
	"repro/internal/roadnet"
)

// TestBuildMatchesReference holds Build, list for list, to referenceLists
// on random perturbed histories, at the default τ and at a looser one whose
// denser graph prunes more: every To, N and Agreement must be equal bit for
// bit.
func TestBuildMatchesReference(t *testing.T) {
	t.Parallel()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	n := d.Net.NumRoads()
	for _, tau := range []float64{0.65, 0.55} {
		cc := Config{MinAgreement: tau}
		dropped := 0
		for trial := 0; trial < 6; trial++ {
			db := d.DB
			if trial > 0 {
				db = perturb(t, rng, d.DB, rng.Perm(n)[:1+rng.Intn(n/3)])
			}
			got, err := Build(d.Net, db, cc)
			if err != nil {
				t.Fatal(err)
			}
			unpruned, want := referenceLists(d.Net, db, cc)
			sameLists(t, fmt.Sprintf("τ %v, trial %d", tau, trial), got.edges, want)
			for r := range unpruned {
				dropped += len(unpruned[r]) - len(want[r])
			}
		}
		if dropped == 0 {
			t.Errorf("τ %v: pruning dropped no edge; the test checks no pruned list", tau)
		}
	}
}

// referenceLists builds the correlation lists by brute force: every pair
// within maxHops of each other by Network.Hops, its counts taken from
// CoObserved, thresholded and Laplace-smoothed, each list sorted by
// descending agreement and then road ID. It returns those lists and the
// lists pruned by the symmetric rule: an edge stays if either endpoint
// ranks it within its top maxNeighbors.
func referenceLists(net *roadnet.Network, db *history.DB, cfg Config) (unpruned, pruned [][]Edge) {
	n := net.NumRoads()
	unpruned = make([][]Edge, n)
	for u := range n {
		hops := net.Hops([]roadnet.RoadID{roadnet.RoadID(u)}, maxHops)
		for v := u + 1; v < n; v++ {
			if hops[v] < 0 {
				continue
			}
			co, agree := 0, 0
			db.CoObserved(roadnet.RoadID(u), roadnet.RoadID(v), func(_ int32, relU, relV float32) {
				co++
				if (relU >= 1) == (relV >= 1) {
					agree++
				}
			})
			a := (float64(agree) + 1) / (float64(co) + 2)
			if co < minCoObserved || a < cfg.MinAgreement {
				continue
			}
			unpruned[u] = append(unpruned[u], Edge{To: roadnet.RoadID(v), N: int32(co), Agreement: a})
			unpruned[v] = append(unpruned[v], Edge{To: roadnet.RoadID(u), N: int32(co), Agreement: a})
		}
	}
	top := make([]map[roadnet.RoadID]bool, n)
	for u, es := range unpruned {
		slices.SortFunc(es, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(b.Agreement, a.Agreement), cmp.Compare(a.To, b.To))
		})
		top[u] = map[roadnet.RoadID]bool{}
		for _, e := range es[:min(maxNeighbors, len(es))] {
			top[u][e.To] = true
		}
	}
	pruned = make([][]Edge, n)
	for u, es := range unpruned {
		for _, e := range es {
			if top[u][e.To] || top[e.To][roadnet.RoadID(u)] {
				pruned[u] = append(pruned[u], e)
			}
		}
	}
	return unpruned, pruned
}

// perturb rolls db forward with observations on roads, at stored slots and
// at new ones, and returns the new history.
func perturb(t *testing.T, rng *rand.Rand, db *history.DB, roads []int) *history.DB {
	t.Helper()
	b, err := history.NewBuilderFrom(db)
	if err != nil {
		t.Fatal(err)
	}
	end := int(db.Cal().SlotsPerDay()) * 4
	for _, road := range roads {
		r := roadnet.RoadID(road)
		var slots []int32
		db.EachSample(r, func(slot int32, _ float32) { slots = append(slots, slot) })
		for k := 0; k < 20 && len(slots) > 0; k++ {
			slot := int(slots[rng.Intn(len(slots))])
			speed := 5 + 10*rng.Float64()
			if mean, ok := db.Mean(r, slot); ok {
				speed = mean * (0.5 + rng.Float64())
			}
			if k%4 == 3 {
				slot = end + rng.Intn(50)
			}
			if err := b.Add(r, slot, speed); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Finalize()
}

// sameLists fails t at the first road whose list differs between got and
// want in length, or in an edge's To, N or the bits of its Agreement.
func sameLists(t *testing.T, label string, got, want [][]Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d roads, want %d", label, len(got), len(want))
	}
	same := func(a, b Edge) bool {
		return a.To == b.To && a.N == b.N && math.Float64bits(a.Agreement) == math.Float64bits(b.Agreement)
	}
	for r := range want {
		if !slices.EqualFunc(got[r], want[r], same) {
			t.Fatalf("%s: road %d: Build lists %+v, the reference %+v", label, r, got[r], want[r])
		}
	}
}
