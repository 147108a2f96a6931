package seedsel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/corr"
	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// randomProblem builds a random correlation graph instance for property
// tests.
func randomProblem(t *testing.T, seed int64, n int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var es []corr.EdgeSpec
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.25 {
				es = append(es, corr.EdgeSpec{
					U: roadnet.RoadID(u), V: roadnet.RoadID(v),
					Agreement: 0.55 + rng.Float64()*0.4, N: 50,
				})
			}
		}
	}
	g, err := corr.NewGraph(n, es)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 0.5 + rng.Float64()*3
	}
	p, err := NewProblem(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func datasetProblem(t *testing.T) *Problem {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 7, 6
	cfg.HistoryDays = 7
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := corr.Build(d.Net, d.DB, corr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, BenefitWeights(d.Net, d.DB))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	g, err := corr.NewGraph(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(g, []float64{1}); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := NewProblem(g, []float64{1, -1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewProblem(g, []float64{1, math.NaN(), 1}); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestSelfInfluenceIsOne(t *testing.T) {
	p := randomProblem(t, 1, 12)
	for s := 0; s < p.NumRoads(); s++ {
		// Benefit of a single seed includes its own full weight.
		b := p.Benefit([]roadnet.RoadID{roadnet.RoadID(s)})
		if b < p.weights[s]-1e-9 {
			t.Errorf("seed %d benefit %v below own weight %v", s, b, p.weights[s])
		}
	}
}

func TestBenefitMonotone(t *testing.T) {
	p := randomProblem(t, 2, 15)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(p.NumRoads())
		var set []roadnet.RoadID
		prev := 0.0
		for _, s := range perm[:8] {
			set = append(set, roadnet.RoadID(s))
			b := p.Benefit(set)
			if b < prev-1e-9 {
				return false
			}
			prev = b
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBenefitSubmodular(t *testing.T) {
	// For S ⊆ T and s ∉ T: B(S∪{s}) − B(S) ≥ B(T∪{s}) − B(T).
	p := randomProblem(t, 3, 15)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(p.NumRoads())
		small := []roadnet.RoadID{roadnet.RoadID(perm[0]), roadnet.RoadID(perm[1])}
		large := append(append([]roadnet.RoadID{}, small...),
			roadnet.RoadID(perm[2]), roadnet.RoadID(perm[3]), roadnet.RoadID(perm[4]))
		s := roadnet.RoadID(perm[5])
		gainSmall := p.Benefit(append(append([]roadnet.RoadID{}, small...), s)) - p.Benefit(small)
		gainLarge := p.Benefit(append(append([]roadnet.RoadID{}, large...), s)) - p.Benefit(large)
		return gainSmall >= gainLarge-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMatchesLazy(t *testing.T) {
	p := randomProblem(t, 4, 40)
	for _, k := range []int{1, 3, 8, 15} {
		gs, err := Greedy{}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := Lazy{}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		bg, bl := p.Benefit(gs), p.Benefit(ls)
		if math.Abs(bg-bl) > 1e-9 {
			t.Errorf("k=%d: greedy benefit %v != lazy benefit %v", k, bg, bl)
		}
		if len(gs) != k || len(ls) != k {
			t.Errorf("k=%d: wrong seed counts %d/%d", k, len(gs), len(ls))
		}
	}
}

func TestGreedyWithinBoundOfExact(t *testing.T) {
	p := randomProblem(t, 5, 12)
	for _, k := range []int{2, 3} {
		opt, err := Exact{}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		grd, err := Greedy{}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		bOpt, bGrd := p.Benefit(opt), p.Benefit(grd)
		if bGrd > bOpt+1e-9 {
			t.Fatalf("greedy beat exact: %v > %v", bGrd, bOpt)
		}
		bound := (1 - 1/math.E) * bOpt
		if bGrd < bound-1e-9 {
			t.Errorf("k=%d: greedy %v below (1-1/e)·OPT = %v", k, bGrd, bound)
		}
	}
}

func TestExactRefusesLargeInstances(t *testing.T) {
	p := randomProblem(t, 6, 40)
	if _, err := (Exact{}).Select(p, 10); err == nil {
		t.Error("C(40,10) search accepted")
	}
}

func TestSelectorsValidateBudget(t *testing.T) {
	p := randomProblem(t, 7, 10)
	for _, sel := range []Selector{Greedy{}, Lazy{}, Partition{}, Degree{}, PageRank{}, Random{}, Exact{}} {
		if _, err := sel.Select(p, 0); err == nil {
			t.Errorf("%s accepted k=0", sel.Name())
		}
		if _, err := sel.Select(p, 11); err == nil {
			t.Errorf("%s accepted k>n", sel.Name())
		}
	}
}

func TestAllSelectorsReturnDistinctSeeds(t *testing.T) {
	p := datasetProblem(t)
	k := 20
	for _, sel := range []Selector{Greedy{}, Lazy{}, Partition{Parts: 4}, Degree{}, PageRank{}, Random{Seed: 1}} {
		seeds, err := sel.Select(p, k)
		if err != nil {
			t.Fatalf("%s: %v", sel.Name(), err)
		}
		if len(seeds) != k {
			t.Errorf("%s returned %d seeds, want %d", sel.Name(), len(seeds), k)
		}
		seen := map[roadnet.RoadID]bool{}
		for _, s := range seeds {
			if seen[s] {
				t.Errorf("%s returned duplicate seed %d", sel.Name(), s)
			}
			seen[s] = true
			if int(s) < 0 || int(s) >= p.NumRoads() {
				t.Errorf("%s returned out-of-range seed %d", sel.Name(), s)
			}
		}
	}
}

func TestQualityOrdering(t *testing.T) {
	// On a realistic instance the expected quality ordering must hold:
	// greedy/lazy ≥ partition ≥ heuristics ≥ random (with slack for noise).
	p := datasetProblem(t)
	k := 25
	benefit := func(sel Selector) float64 {
		seeds, err := sel.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		return p.Benefit(seeds)
	}
	bLazy := benefit(Lazy{})
	bPart := benefit(Partition{Parts: 4})
	bDeg := benefit(Degree{})
	bRand := benefit(Random{Seed: 3})
	if bLazy < bPart-1e-9 {
		t.Errorf("lazy %v below partition %v", bLazy, bPart)
	}
	if bLazy < bDeg-1e-9 {
		t.Errorf("lazy %v below degree %v", bLazy, bDeg)
	}
	if bLazy <= bRand {
		t.Errorf("lazy %v not above random %v", bLazy, bRand)
	}
	if bPart < 0.7*bLazy {
		t.Errorf("partition %v lost more than 30%% vs lazy %v", bPart, bLazy)
	}
}

func TestLazyFasterPathStillExactOnDataset(t *testing.T) {
	p := datasetProblem(t)
	k := 15
	gs, err := Greedy{}.Select(p, k)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Lazy{}.Select(p, k)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Benefit(gs)-p.Benefit(ls)) > 1e-9 {
		t.Errorf("lazy and greedy diverge on dataset instance: %v vs %v", p.Benefit(gs), p.Benefit(ls))
	}
}

func TestBenefitWeightsPositive(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 3
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := BenefitWeights(d.Net, d.DB)
	if len(w) != d.Net.NumRoads() {
		t.Fatalf("weights length %d", len(w))
	}
	for r, v := range w {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("weight[%d] = %v", r, v)
		}
	}
	// Highways should on average outweigh locals.
	var hwSum, hwN, locSum, locN float64
	for r := 0; r < d.Net.NumRoads(); r++ {
		switch d.Net.Road(roadnet.RoadID(r)).Class {
		case roadnet.Highway:
			hwSum += w[r]
			hwN++
		case roadnet.Local:
			locSum += w[r]
			locN++
		}
	}
	if hwN > 0 && locN > 0 && hwSum/hwN <= locSum/locN {
		t.Errorf("mean highway weight %v not above local %v", hwSum/hwN, locSum/locN)
	}
}

func TestRandomDeterministicForSeed(t *testing.T) {
	p := randomProblem(t, 8, 20)
	a, _ := Random{Seed: 5}.Select(p, 7)
	b, _ := Random{Seed: 5}.Select(p, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different selections")
		}
	}
}

func TestPartitionHandlesKSmallerThanParts(t *testing.T) {
	p := randomProblem(t, 9, 20)
	seeds, err := Partition{Parts: 16}.Select(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 {
		t.Errorf("got %d seeds", len(seeds))
	}
}

// TestPartitionOnePartIsLazy: with one partition, Partition runs lazy greedy
// over every road with the whole budget, so it returns Lazy's set sorted by
// road ID.
func TestPartitionOnePartIsLazy(t *testing.T) {
	p := datasetProblem(t)
	n := p.NumRoads()
	for _, k := range []int{1, 10, n / 10, n} {
		want, err := Lazy{}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(want)
		got, err := Partition{Parts: 1}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("k=%d: Partition{Parts: 1} chose %v, Lazy %v", k, got, want)
		}
	}
}

func TestInfluenceListsBounded(t *testing.T) {
	p := datasetProblem(t)
	for s := 0; s < p.NumRoads(); s++ {
		sz := len(p.infl[s])
		if sz < 1 {
			t.Fatalf("road %d has empty influence list (must at least cover itself)", s)
		}
	}
}

func TestNaiveGreedyMatchesGreedy(t *testing.T) {
	p := randomProblem(t, 11, 25)
	for _, k := range []int{1, 3, 6} {
		ng, err := NaiveGreedy{}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Greedy{}.Select(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Benefit(ng)-p.Benefit(g)) > 1e-9 {
			t.Errorf("k=%d: naive benefit %v != greedy %v", k, p.Benefit(ng), p.Benefit(g))
		}
	}
	if _, err := (NaiveGreedy{}).Select(p, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCostAwareValidation(t *testing.T) {
	p := randomProblem(t, 13, 12)
	if _, err := (CostAware{Costs: uniformCosts(12, 1), Budget: 5}).Select(p, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := (CostAware{Costs: uniformCosts(3, 1), Budget: 5}).Select(p, 5); err == nil {
		t.Error("wrong cost length accepted")
	}
	costs := uniformCosts(12, 1)
	costs[3] = -1
	if _, err := (CostAware{Costs: costs, Budget: 5}).Select(p, 5); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := (CostAware{Costs: uniformCosts(12, 1), Budget: 0}).Select(p, 5); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestCostAwareRespectsBudget(t *testing.T) {
	p := randomProblem(t, 14, 30)
	costs := make([]float64, 30)
	for i := range costs {
		costs[i] = 1 + float64(i%5)
	}
	budget := 12.0
	seeds, err := (CostAware{Costs: costs, Budget: budget}).Select(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	var spent float64
	seen := map[roadnet.RoadID]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
		spent += costs[s]
	}
	if spent > budget {
		t.Errorf("spent %v over budget %v", spent, budget)
	}
	if len(seeds) == 0 {
		t.Error("no seeds selected under a feasible budget")
	}
}

func TestCostAwareMatchesLazyUnderUniformCosts(t *testing.T) {
	// With uniform costs, cost-aware with budget = k·price reduces to plain
	// lazy greedy.
	p := randomProblem(t, 15, 25)
	k := 6
	lazySeeds, err := Lazy{}.Select(p, k)
	if err != nil {
		t.Fatal(err)
	}
	caSeeds, err := (CostAware{Costs: uniformCosts(25, 2), Budget: float64(k) * 2}).Select(p, 25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Benefit(lazySeeds)-p.Benefit(caSeeds)) > 1e-9 {
		t.Errorf("uniform-cost benefit %v != lazy %v", p.Benefit(caSeeds), p.Benefit(lazySeeds))
	}
}

func TestCostAwarePrefersCheapSeeds(t *testing.T) {
	// Two roads with equal influence but very different prices: the cheap
	// one must be taken first.
	g, err := corr.NewGraph(4, []corr.EdgeSpec{
		{U: 0, V: 1, Agreement: 0.9, N: 50},
		{U: 2, V: 3, Agreement: 0.9, N: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(g, []float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{10, 10, 1, 1} // the 2–3 pair is 10× cheaper
	seeds, err := (CostAware{Costs: costs, Budget: 1}).Select(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 || (seeds[0] != 2 && seeds[0] != 3) {
		t.Errorf("seeds = %v, want one of the cheap pair", seeds)
	}
}

func TestCostAwareSingleExpensiveSeedGuard(t *testing.T) {
	// A star: road 0 influences everything but costs the whole budget;
	// cheap isolated roads cover only themselves. The guard must pick the
	// expensive hub.
	var es []corr.EdgeSpec
	for v := 1; v <= 8; v++ {
		es = append(es, corr.EdgeSpec{U: 0, V: roadnet.RoadID(v), Agreement: 0.95, N: 50})
	}
	g, err := corr.NewGraph(12, es) // roads 9..11 isolated
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, 12)
	for i := range weights {
		weights[i] = 1
	}
	p, err := NewProblem(g, weights)
	if err != nil {
		t.Fatal(err)
	}
	costs := uniformCosts(12, 1)
	costs[0] = 10 // hub price == budget
	seeds, err := (CostAware{Costs: costs, Budget: 10}).Select(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Benefit(seeds)
	hubOnly := p.Benefit([]roadnet.RoadID{0})
	if b < hubOnly-1e-9 {
		t.Errorf("cost-aware benefit %v below hub-only %v; guard failed", b, hubOnly)
	}
}

// uniformCosts returns a cost table charging every road the same price.
func uniformCosts(n int, price float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = price
	}
	return out
}
