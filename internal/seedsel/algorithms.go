package seedsel

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Lazy-greedy observability: the algorithm's whole value is skipping stale
// gain re-evaluations, so the reevaluations-per-budget ratio is the metric
// the paper's ~2-orders-of-magnitude efficiency claim lives or dies on
// (plain greedy would pay n evaluations per selected seed).
var (
	lazyReevaluations = obs.Default().Counter("trendspeed_seedsel_reevaluations_total",
		"Stale heap-gain recomputations performed by lazy greedy.")
	lazySelections = obs.Default().Counter("trendspeed_seedsel_selections_total",
		"Lazy-greedy selection runs.")
	lazyLastK = obs.Default().Gauge("trendspeed_seedsel_last_budget_k",
		"Budget K of the most recent lazy-greedy run.")
	lazyLastReevals = obs.Default().Gauge("trendspeed_seedsel_last_reevaluations",
		"Stale-gain recomputations in the most recent lazy-greedy run.")
)

// Selector is a seed-selection algorithm.
type Selector interface {
	// Select returns k seed roads for the problem.
	Select(p *Problem, k int) ([]roadnet.RoadID, error)
	// Name identifies the algorithm in experiment output.
	Name() string
}

// ContextSelector is implemented by selectors that can abandon a selection
// early when the caller's context is cancelled. Selection over a city-scale
// candidate set is the slowest online operation after a model swap, so
// serving layers prefer this interface when the selector offers it (see
// core.Model.SelectSeeds); Select remains the uncancellable fallback.
type ContextSelector interface {
	Selector
	// SelectCtx is Select bounded by ctx: it returns an error wrapping
	// ctx.Err() once the context is cancelled, checked between marginal-gain
	// evaluations.
	SelectCtx(ctx context.Context, p *Problem, k int) ([]roadnet.RoadID, error)
}

// cancelCheckStride is how many marginal-gain evaluations a ctx-aware
// selector performs between ctx polls during its initial heap fill.
const cancelCheckStride = 1 << 10

// Greedy is the plain greedy algorithm: K passes, each evaluating the
// marginal gain of every remaining candidate. It carries the
// (1−1/e)-approximation guarantee and is the slow reference the paper's
// faster algorithms are measured against.
type Greedy struct{}

// Name implements Selector.
func (Greedy) Name() string { return "greedy" }

// Select implements Selector.
func (Greedy) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	n := p.NumRoads()
	uncovered := p.newUncovered()
	chosen := make([]bool, n)
	seeds := make([]roadnet.RoadID, 0, k)
	for len(seeds) < k {
		bestGain := -1.0
		var best roadnet.RoadID = -1
		for s := 0; s < n; s++ {
			if chosen[s] {
				continue
			}
			if g := p.gain(uncovered, roadnet.RoadID(s)); g > bestGain {
				bestGain = g
				best = roadnet.RoadID(s)
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		p.apply(uncovered, best)
		seeds = append(seeds, best)
	}
	return seeds, nil
}

// Lazy is lazy greedy (CELF): marginal gains are kept in a max-heap and only
// re-evaluated when stale. Submodularity guarantees gains never grow, so a
// re-evaluated top element that stays on top is the true greedy choice; the
// selected set is identical to Greedy's, typically ~2 orders of magnitude
// faster at realistic budgets.
type Lazy struct{}

// Name implements Selector.
func (Lazy) Name() string { return "lazy" }

// lazyItem is a heap entry: a candidate with a possibly stale gain.
type lazyItem struct {
	road  roadnet.RoadID
	gain  float64
	round int // selection round the gain was computed in
}

// lazyHeap is a max-heap on gain with road-ID tie-break for determinism.
type lazyHeap []lazyItem

func (h lazyHeap) Len() int { return len(h) }
func (h lazyHeap) Less(i, j int) bool {
	//lint:ignore floateq heap tie-break: exact equality falls through to the road order, an epsilon would break heap ordering
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].road < h[j].road
}
func (h lazyHeap) Swap(i, j int)  { h[i], h[j] = h[j], h[i] }
func (h *lazyHeap) Push(x any)    { *h = append(*h, x.(lazyItem)) }
func (h *lazyHeap) Pop() any      { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h lazyHeap) Peek() lazyItem { return h[0] }
func (h *lazyHeap) ReplaceTop(it lazyItem) {
	(*h)[0] = it
	heap.Fix(h, 0)
}

// Select implements Selector.
func (l Lazy) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	//lint:ignore ctxflow Selector.Select has no ctx by design: every selector implements it, including ones outside this package; cancellable callers use SelectCtx
	return l.SelectCtx(context.Background(), p, k)
}

// SelectCtx implements ContextSelector. Cancellation is polled every
// cancelCheckStride gains during the initial heap fill and on every heap
// iteration afterwards; a cancelled run returns no partial seed set.
func (Lazy) SelectCtx(ctx context.Context, p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	n := p.NumRoads()
	uncovered := p.newUncovered()
	h := make(lazyHeap, 0, n)
	for s := 0; s < n; s++ {
		if s%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("seedsel: lazy greedy cancelled during heap fill: %w", err)
			}
		}
		h = append(h, lazyItem{road: roadnet.RoadID(s), gain: p.gain(uncovered, roadnet.RoadID(s)), round: 0})
	}
	heap.Init(&h)
	seeds := make([]roadnet.RoadID, 0, k)
	reevals := 0
	for len(seeds) < k && h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("seedsel: lazy greedy cancelled with %d/%d seeds chosen: %w", len(seeds), k, err)
		}
		top := h.Peek()
		if top.round == len(seeds) {
			// Gain is fresh for the current selection state; by
			// submodularity every other (stale) gain can only be lower, so
			// this is the true greedy choice.
			heap.Pop(&h)
			p.apply(uncovered, top.road)
			seeds = append(seeds, top.road)
			continue
		}
		// Stale: recompute against the current state and reorder.
		top.gain = p.gain(uncovered, top.road)
		top.round = len(seeds)
		h.ReplaceTop(top)
		reevals++
	}
	lazySelections.Inc()
	lazyReevaluations.Add(float64(reevals))
	lazyLastK.Set(float64(k))
	lazyLastReevals.Set(float64(reevals))
	return seeds, nil
}

// Partition is the fast approximate selector: the road set is split into
// contiguous BFS partitions, the budget is allocated to partitions
// proportionally to their total weight, and lazy greedy runs within each
// partition independently. It trades a little benefit for near-linear
// scaling, mirroring the paper's "efficient approximate" variant.
type Partition struct {
	// Parts is the number of partitions (default 8).
	Parts int
}

// Name implements Selector.
func (Partition) Name() string { return "partition" }

// Select implements Selector.
func (pt Partition) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	parts := pt.Parts
	if parts <= 0 {
		parts = 8
	}
	if parts > k {
		parts = k
	}
	n := p.NumRoads()
	assign := bfsPartition(p.graph.NumRoads(), parts, func(u int) []roadnet.RoadID {
		nbs := p.graph.Neighbors(roadnet.RoadID(u))
		out := make([]roadnet.RoadID, len(nbs))
		for i, e := range nbs {
			out[i] = e.To
		}
		return out
	})
	// Budget per partition ∝ total weight.
	weightOf := make([]float64, parts)
	var total float64
	for r := 0; r < n; r++ {
		weightOf[assign[r]] += p.weights[r]
		total += p.weights[r]
	}
	budget := make([]int, parts)
	allocated := 0
	for i := range budget {
		if total > 0 {
			budget[i] = int(float64(k) * weightOf[i] / total)
		}
		allocated += budget[i]
	}
	// Distribute the rounding remainder to the heaviest partitions.
	order := make([]int, parts)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return weightOf[order[a]] > weightOf[order[b]] })
	for i := 0; allocated < k; i = (i + 1) % parts {
		budget[order[i]]++
		allocated++
	}

	var seeds []roadnet.RoadID
	uncovered := p.newUncovered()
	for part := 0; part < parts; part++ {
		b := budget[part]
		if b == 0 {
			continue
		}
		// Lazy greedy restricted to this partition's candidates, but gains
		// still measured over the global uncovered vector so partitions do
		// not double-cover boundary roads.
		var h lazyHeap
		for r := 0; r < n; r++ {
			if assign[r] != part {
				continue
			}
			h = append(h, lazyItem{road: roadnet.RoadID(r), gain: p.gain(uncovered, roadnet.RoadID(r)), round: 0})
		}
		heap.Init(&h)
		taken := 0
		for taken < b && h.Len() > 0 {
			top := h.Peek()
			if top.round == taken {
				heap.Pop(&h)
				p.apply(uncovered, top.road)
				seeds = append(seeds, top.road)
				taken++
				continue
			}
			top.gain = p.gain(uncovered, top.road)
			top.round = taken
			h.ReplaceTop(top)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if len(seeds) > k {
		seeds = seeds[:k]
	}
	return seeds, nil
}

// bfsPartition splits nodes into roughly equal contiguous parts by repeated
// BFS from the lowest unassigned node.
func bfsPartition(n, parts int, neighbors func(int) []roadnet.RoadID) []int {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	target := (n + parts - 1) / parts
	part := 0
	count := 0
	var queue []int
	for start := 0; start < n; start++ {
		if assign[start] != -1 {
			continue
		}
		queue = append(queue[:0], start)
		assign[start] = part
		count++
		for qi := 0; qi < len(queue); qi++ {
			if count >= target && part < parts-1 {
				part++
				count = 0
			}
			u := queue[qi]
			for _, v := range neighbors(u) {
				if assign[v] == -1 {
					assign[v] = part
					count++
					queue = append(queue, int(v))
				}
			}
		}
	}
	return assign
}

// Degree selects the K candidates with the largest weighted influence mass —
// a cheap heuristic baseline that ignores overlap.
type Degree struct{}

// Name implements Selector.
func (Degree) Name() string { return "degree" }

// Select implements Selector.
func (Degree) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	uncovered := p.newUncovered()
	type cand struct {
		road roadnet.RoadID
		mass float64
	}
	cands := make([]cand, p.NumRoads())
	for s := 0; s < p.NumRoads(); s++ {
		cands[s] = cand{road: roadnet.RoadID(s), mass: p.gain(uncovered, roadnet.RoadID(s))}
	}
	sort.Slice(cands, func(i, j int) bool {
		//lint:ignore floateq sort tie-break: exact equality falls through to the road order, an epsilon would break strict weak ordering
		if cands[i].mass != cands[j].mass {
			return cands[i].mass > cands[j].mass
		}
		return cands[i].road < cands[j].road
	})
	seeds := make([]roadnet.RoadID, k)
	for i := 0; i < k; i++ {
		seeds[i] = cands[i].road
	}
	return seeds, nil
}

// PageRank ranks candidates by their stationary probability in a random walk
// over the correlation graph (edge weights = agreement), a centrality
// heuristic baseline.
type PageRank struct {
	// Damping is the walk restart parameter (default 0.85).
	Damping float64
	// Iterations is the number of power iterations (default 30).
	Iterations int
}

// Name implements Selector.
func (PageRank) Name() string { return "pagerank" }

// Select implements Selector.
func (pr PageRank) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	d := pr.Damping
	//lint:ignore floateq exact zero means the Damping field was left unset; apply the default
	if d == 0 {
		d = 0.85
	}
	iters := pr.Iterations
	if iters == 0 {
		iters = 30
	}
	n := p.NumRoads()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	// Out-weight normalisers.
	outW := make([]float64, n)
	for u := 0; u < n; u++ {
		for _, e := range p.graph.Neighbors(roadnet.RoadID(u)) {
			outW[u] += e.Agreement
		}
	}
	for it := 0; it < iters; it++ {
		base := (1 - d) / float64(n)
		for i := range next {
			next[i] = base
		}
		for u := 0; u < n; u++ {
			//lint:ignore floateq exact zero means no out-edges: out-weights are sums of non-negative agreements
			if outW[u] == 0 {
				// Dangling mass spreads uniformly.
				share := d * rank[u] / float64(n)
				for i := range next {
					next[i] += share
				}
				continue
			}
			for _, e := range p.graph.Neighbors(roadnet.RoadID(u)) {
				next[e.To] += d * rank[u] * e.Agreement / outW[u]
			}
		}
		rank, next = next, rank
	}
	type cand struct {
		road roadnet.RoadID
		r    float64
	}
	cands := make([]cand, n)
	for i := 0; i < n; i++ {
		cands[i] = cand{road: roadnet.RoadID(i), r: rank[i]}
	}
	sort.Slice(cands, func(i, j int) bool {
		//lint:ignore floateq sort tie-break: exact equality falls through to the road order, an epsilon would break strict weak ordering
		if cands[i].r != cands[j].r {
			return cands[i].r > cands[j].r
		}
		return cands[i].road < cands[j].road
	})
	seeds := make([]roadnet.RoadID, k)
	for i := 0; i < k; i++ {
		seeds[i] = cands[i].road
	}
	return seeds, nil
}

// Random selects K distinct roads uniformly; the floor baseline.
type Random struct {
	Seed int64
}

// Name implements Selector.
func (Random) Name() string { return "random" }

// Select implements Selector.
func (rd Random) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rd.Seed))
	perm := rng.Perm(p.NumRoads())
	seeds := make([]roadnet.RoadID, k)
	for i := 0; i < k; i++ {
		seeds[i] = roadnet.RoadID(perm[i])
	}
	return seeds, nil
}

// Exact enumerates every K-subset; the optimal oracle for tiny instances.
type Exact struct {
	// MaxCombinations caps the search space (default 2e6).
	MaxCombinations int
}

// Name implements Selector.
func (Exact) Name() string { return "exact" }

// Select implements Selector.
func (ex Exact) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	maxComb := ex.MaxCombinations
	if maxComb == 0 {
		maxComb = 2_000_000
	}
	n := p.NumRoads()
	if c := binomial(n, k); c < 0 || c > maxComb {
		return nil, fmt.Errorf("seedsel: exact search over C(%d,%d) combinations exceeds the cap %d", n, k, maxComb)
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	bestSet := make([]roadnet.RoadID, k)
	bestB := -1.0
	cur := make([]roadnet.RoadID, k)
	for {
		for i, v := range idx {
			cur[i] = roadnet.RoadID(v)
		}
		if b := p.Benefit(cur); b > bestB {
			bestB = b
			copy(bestSet, cur)
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return bestSet, nil
}

// binomial returns C(n, k), or -1 on overflow.
func binomial(n, k int) int {
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		if res > (1<<62)/(n-i) {
			return -1
		}
		res = res * (n - i) / (i + 1)
	}
	return res
}

// NaiveGreedy is the straightforward greedy implementation a first system
// would ship: every candidate in every round is scored by recomputing the
// full benefit B(S ∪ {s}) from scratch, with no marginal-gain bookkeeping.
// It returns the same seed set as Greedy and exists as the efficiency
// baseline the incremental and lazy algorithms are measured against.
type NaiveGreedy struct{}

// Name implements Selector.
func (NaiveGreedy) Name() string { return "naive-greedy" }

// Select implements Selector.
func (NaiveGreedy) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	n := p.NumRoads()
	chosen := make([]bool, n)
	seeds := make([]roadnet.RoadID, 0, k)
	for len(seeds) < k {
		bestBenefit := -1.0
		var best roadnet.RoadID = -1
		trial := append(seeds, 0)
		for s := 0; s < n; s++ {
			if chosen[s] {
				continue
			}
			trial[len(trial)-1] = roadnet.RoadID(s)
			if b := p.Benefit(trial); b > bestBenefit {
				bestBenefit = b
				best = roadnet.RoadID(s)
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		seeds = append(seeds, best)
	}
	return seeds, nil
}

// CostAware selects seeds under a *monetary* budget rather than a count:
// each road has a query cost (e.g. quiet side streets have few drivers to
// ask, so answers cost more), and the selector maximises benefit subject to
// Σ cost(s) ≤ Budget. It runs the classic cost-benefit lazy greedy for the
// budgeted submodular cover: candidates are ranked by marginal gain per
// unit cost, and the result keeps the well-known (1−1/√e)-style guarantee
// of cost-greedy when combined with the best single affordable seed.
type CostAware struct {
	// Costs per road; all must be positive. len(Costs) must equal the
	// problem size.
	Costs []float64
	// Budget is the total spend allowed.
	Budget float64
}

// Name implements Selector.
func (CostAware) Name() string { return "costaware" }

// Select implements Selector. The k argument is an additional cap on the
// number of seeds (use the problem size for "no cap").
func (ca CostAware) Select(p *Problem, k int) ([]roadnet.RoadID, error) {
	if err := p.validateK(k); err != nil {
		return nil, err
	}
	n := p.NumRoads()
	if len(ca.Costs) != n {
		return nil, fmt.Errorf("seedsel: %d costs for %d roads", len(ca.Costs), n)
	}
	for r, c := range ca.Costs {
		if c <= 0 {
			return nil, fmt.Errorf("seedsel: non-positive cost %v for road %d", c, r)
		}
	}
	if ca.Budget <= 0 {
		return nil, fmt.Errorf("seedsel: budget must be positive, got %v", ca.Budget)
	}

	uncovered := p.newUncovered()
	// Lazy greedy on gain/cost ratio.
	h := make(lazyHeap, 0, n)
	for s := 0; s < n; s++ {
		if ca.Costs[s] > ca.Budget {
			continue
		}
		h = append(h, lazyItem{
			road:  roadnet.RoadID(s),
			gain:  p.gain(uncovered, roadnet.RoadID(s)) / ca.Costs[s],
			round: 0,
		})
	}
	heap.Init(&h)
	var seeds []roadnet.RoadID
	spent := 0.0
	round := 0
	for len(seeds) < k && h.Len() > 0 {
		top := h.Peek()
		cost := ca.Costs[top.road]
		if spent+cost > ca.Budget {
			// Unaffordable now and forever (costs are static): drop it.
			heap.Pop(&h)
			continue
		}
		if top.round == round {
			heap.Pop(&h)
			p.apply(uncovered, top.road)
			seeds = append(seeds, top.road)
			spent += cost
			round++
			continue
		}
		top.gain = p.gain(uncovered, top.road) / cost
		top.round = round
		h.ReplaceTop(top)
	}

	// Guard against the pathological case where one expensive seed beats the
	// whole ratio-greedy set (the standard fix for budgeted maximisation).
	bestSingle := roadnet.RoadID(-1)
	bestGain := -1.0
	empty := p.newUncovered()
	for s := 0; s < n; s++ {
		if ca.Costs[s] > ca.Budget {
			continue
		}
		if g := p.gain(empty, roadnet.RoadID(s)); g > bestGain {
			bestGain = g
			bestSingle = roadnet.RoadID(s)
		}
	}
	if bestSingle >= 0 && bestGain > p.Benefit(seeds) {
		return []roadnet.RoadID{bestSingle}, nil
	}
	return seeds, nil
}

// UniformCosts returns a cost table charging every road the same price.
func UniformCosts(n int, price float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = price
	}
	return out
}
