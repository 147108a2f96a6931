package corr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/roadnet"
)

func TestNewGraphValidation(t *testing.T) {
	t.Parallel()
	bad := []struct {
		name string
		n    int
		es   []EdgeSpec
	}{
		{"out of range", 2, []EdgeSpec{{U: 0, V: 5, Agreement: 0.8}}},
		{"negative", 2, []EdgeSpec{{U: -1, V: 1, Agreement: 0.8}}},
		{"self edge", 2, []EdgeSpec{{U: 1, V: 1, Agreement: 0.8}}},
		{"agreement 0", 2, []EdgeSpec{{U: 0, V: 1, Agreement: 0}}},
		{"agreement 1", 2, []EdgeSpec{{U: 0, V: 1, Agreement: 1}}},
		{"agreement NaN", 3, []EdgeSpec{{U: 0, V: 1, Agreement: math.NaN()}, {U: 0, V: 2, Agreement: 0.8}}},
		{"duplicate", 3, []EdgeSpec{{U: 0, V: 1, Agreement: 0.7}, {U: 1, V: 0, Agreement: 0.8}}},
	}
	for _, tc := range bad {
		if _, err := NewGraph(tc.n, tc.es); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// Property: NewGraph always yields a symmetric graph whose edge count
// matches the spec count.
func TestNewGraphSymmetryProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		seen := map[[2]int]bool{}
		var es []EdgeSpec
		for i := 0; i < rng.Intn(15); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			key := [2]int{min(u, v), max(u, v)}
			if seen[key] {
				continue
			}
			seen[key] = true
			es = append(es, EdgeSpec{
				U: roadnet.RoadID(u), V: roadnet.RoadID(v),
				Agreement: 0.5 + rng.Float64()*0.49, N: 10,
			})
		}
		g, err := NewGraph(n, es)
		if err != nil {
			return false
		}
		if g.NumEdges() != len(es) {
			return false
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(roadnet.RoadID(u)) {
				found := false
				for _, back := range g.Neighbors(e.To) {
					if back.To == roadnet.RoadID(u) && back.Agreement == e.Agreement {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
