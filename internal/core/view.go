package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/crowd"
	"repro/internal/history"
	"repro/internal/hlm"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
	"repro/internal/shard"
	"repro/internal/timeslot"
)

// View is one immutable published generation of the sharded pipeline: the
// global road network, the district partitioning plan, and one Model per
// non-empty district, each trained over its district's sub-network (owned
// roads plus a halo ring of neighbours, see internal/shard). Like Model,
// everything reachable from a View is immutable — a Store publishes Views
// through an atomic pointer and mints a successor View per district rebuild,
// so districts swap independently (enforced by cmd/tslint's modelmut
// analyzer; newView is the only constructor).
//
// The degenerate one-district View (Options.Shards ≤ 1) wraps one unsharded
// Model: same network pointer, same history snapshot, no halo and no stitch
// round — its estimates reproduce the pre-sharding pipeline, which the K=1
// golden test pins down. Callers that need the trained artifacts (graph,
// HLM, seed-selection problem) read them from Shard(0).
//
// An estimation round on a sharded View runs every phase per district in
// parallel (par.EachCtx) and splices a bounded boundary-stitching exchange
// between trend-inference rounds: after each round, every halo road's prior
// is replaced by its owning district's current marginal and the inference
// re-runs warm-started from the previous round's beliefs. Only owned roads'
// posteriors are merged into the result, so each road's estimate comes from
// exactly one district — the one whose model saw the road's full
// correlation neighbourhood.
type View struct {
	version      uint64
	net          *roadnet.Network
	plan         *shard.Plan
	shards       []*Model // per district; nil for empty districts
	stitchRounds int
	frontierHops int // members beyond this hop distance are stitch targets
	lastRebuilt  int // district of the most recent shard rebuild; -1 until one runs
}

// newView is the View constructor; all construction paths (initial build and
// per-district successor minting) go through it.
func newView(version uint64, net *roadnet.Network, plan *shard.Plan, shards []*Model, stitchRounds, frontierHops, lastRebuilt int) *View {
	return &View{
		version: version, net: net, plan: plan, shards: shards,
		stitchRounds: stitchRounds, frontierHops: frontierHops, lastRebuilt: lastRebuilt,
	}
}

// NewView partitions the network per opts.Shards and trains every district
// model, returning a version-1 view; with Shards ≤ 1 it trains one model over
// the whole city. This is the expensive offline phase; rounds are cheap
// enough for real-time use. Deployments that want rebuilds use a Store.
func NewView(net *roadnet.Network, db *history.DB, opts Options) (*View, error) {
	//lint:ignore ctxflow NewView is the documented ctx-less offline constructor; Store rebuilds pass their lifetime ctx through buildView directly
	return buildView(context.Background(), net, db, opts, 1)
}

// buildView partitions, trains all district models in parallel and assembles
// the view. Empty districts (the partition grid matched no road midpoints)
// get no model and are skipped by every consumer.
func buildView(ctx context.Context, net *roadnet.Network, db *history.DB, opts Options, version uint64) (*View, error) {
	if net == nil || db == nil {
		return nil, fmt.Errorf("core: network and history are required")
	}
	k := opts.Shards
	if k <= 0 {
		k = 1
	}
	stitch := opts.StitchRounds
	if stitch == 0 {
		stitch = 2
	}
	if stitch < 1 {
		return nil, fmt.Errorf("core: StitchRounds must be ≥ 1, got %d: %w", opts.StitchRounds, ErrInvalidInput)
	}
	// The halo must cover the correlation radius so per-district graphs score
	// every owned pair exactly as the monolithic build would; the default
	// goes three radii out because loopy BP's influence decays over graph
	// distance, not edge length — see Options.HaloHops.
	corrHops := opts.Corr.MaxHops
	if corrHops < 1 {
		corrHops = 2
	}
	haloHops := opts.HaloHops
	if haloHops == 0 {
		haloHops = 3 * corrHops
	}
	if haloHops < corrHops {
		return nil, fmt.Errorf("core: HaloHops %d below the correlation radius %d: %w", opts.HaloHops, corrHops, ErrInvalidInput)
	}
	plan, err := shard.Partition(net, k, haloHops)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning network: %w", err)
	}
	shards := make([]*Model, k)
	if err := par.EachCtx(ctx, k, 0, func(d int) error {
		if len(plan.Owned(d)) == 0 {
			return nil
		}
		m, err := buildShard(ctx, net, db, opts, plan, d, version)
		if err != nil {
			return fmt.Errorf("core: building district %d: %w", d, err)
		}
		shards[d] = m
		return nil
	}); err != nil {
		return nil, err
	}
	return newView(version, net, plan, shards, stitch, haloHops-corrHops, -1), nil
}

// buildShard trains district d's model: the sub-network and restricted
// history of its member roads (owned + halo), with district-adjusted
// options. For the identity plan both restrictions return the originals, so
// the single shard is the unsharded build, bit for bit.
func buildShard(ctx context.Context, net *roadnet.Network, db *history.DB, opts Options, plan *shard.Plan, d int, version uint64) (*Model, error) {
	subnet, err := plan.Subnetwork(net, d)
	if err != nil {
		return nil, err
	}
	subdb, err := db.Restrict(plan.Members(d))
	if err != nil {
		return nil, err
	}
	return build(ctx, subnet, subdb, shardOptions(opts, plan, d), version)
}

// shardOptions adapts global options to one district: explicit HLM pooling
// levels are restricted to the member roads, and the seed-selection benefit
// mask zeroes halo roads so the district's objective counts only what it
// owns. The identity plan returns opts unchanged. Note that *default*
// pooling (HLM.Levels == nil) is computed per district from the sub-network
// bounds, so spatial pools differ from the monolithic build's — a documented
// approximation of sharding (DESIGN.md §13); pass explicit Levels to pin
// pooling globally.
func shardOptions(opts Options, plan *shard.Plan, d int) Options {
	if plan.Identity() {
		return opts
	}
	members := plan.Members(d)
	if opts.HLM.Levels != nil {
		sub := make([][]int, len(opts.HLM.Levels))
		for l, groups := range opts.HLM.Levels {
			g := make([]int, len(members))
			for i, r := range members {
				g[i] = groups[r]
			}
			sub[l] = g
		}
		opts.HLM.Levels = sub
	}
	mask := make([]float64, len(members))
	for i := range mask {
		if plan.OwnsLocal(d, roadnet.RoadID(i)) {
			mask[i] = 1
		}
	}
	opts.benefitMask = mask
	return opts
}

// Version returns the view's monotonically increasing version stamp; a Store
// bumps it on every district swap.
func (v *View) Version() uint64 { return v.version }

// Net returns the global road network.
func (v *View) Net() *roadnet.Network { return v.net }

// Plan returns the district partitioning plan.
func (v *View) Plan() *shard.Plan { return v.plan }

// NumShards returns the number of districts (including empty ones).
func (v *View) NumShards() int { return v.plan.NumDistricts() }

// Shard returns district d's model, or nil for an empty district.
func (v *View) Shard(d int) *Model { return v.shards[d] }

// Sharded reports whether the view holds more than one district.
func (v *View) Sharded() bool { return !v.plan.Identity() }

// StitchRounds returns the configured boundary-stitching round bound.
func (v *View) StitchRounds() int { return v.stitchRounds }

// ownerModel resolves the district model owning global road r and r's local
// ID there. Every road has an owner with a model: a district owning any road
// is never empty.
func (v *View) ownerModel(r roadnet.RoadID) (*Model, roadnet.RoadID) {
	d := v.plan.Owner(r)
	l, _ := v.plan.Local(d, r)
	return v.shards[d], l
}

// RoadMean returns the historical mean speed of global road r in slot,
// served by its owning district.
func (v *View) RoadMean(r roadnet.RoadID, slot int) (float64, bool) {
	m, l := v.ownerModel(r)
	return m.DB().Mean(l, slot)
}

// RoadPUp returns the historical up-trend prior of global road r in slot.
func (v *View) RoadPUp(r roadnet.RoadID, slot int) float64 {
	m, l := v.ownerModel(r)
	return m.DB().PUp(l, slot)
}

// Calendar returns the time-slot calendar, shared by every district's
// history snapshot.
func (v *View) Calendar() *timeslot.Calendar {
	for _, m := range v.shards {
		if m != nil {
			return m.DB().Cal()
		}
	}
	return nil
}

// ObservationCount returns the number of history samples across the view,
// counting each road once (halo copies are excluded).
func (v *View) ObservationCount() int {
	if v.plan.Identity() {
		return v.shards[0].ObservationCount()
	}
	total := 0
	for d, m := range v.shards {
		if m == nil {
			continue
		}
		for l := range v.plan.Members(d) {
			if v.plan.OwnsLocal(d, roadnet.RoadID(l)) {
				total += len(m.DB().Rels(roadnet.RoadID(l)))
			}
		}
	}
	return total
}

// BuiltAt returns the build time of the freshest district model.
func (v *View) BuiltAt() time.Time {
	var latest time.Time
	for _, m := range v.shards {
		if m != nil && m.BuiltAt().After(latest) {
			latest = m.BuiltAt()
		}
	}
	return latest
}

// BuildDuration returns the summed build time of all district models (the
// rebuild cost, not the wall clock — districts build in parallel).
func (v *View) BuildDuration() time.Duration {
	var total time.Duration
	for _, m := range v.shards {
		if m != nil {
			total += m.BuildDuration()
		}
	}
	return total
}

// RebuildMode reports how the most recently rebuilt district was built
// ("full" or "incremental"); for a freshly built view, "full".
func (v *View) RebuildMode() string {
	if v.lastRebuilt >= 0 && v.shards[v.lastRebuilt] != nil {
		return v.shards[v.lastRebuilt].RebuildMode()
	}
	for _, m := range v.shards {
		if m != nil {
			return m.RebuildMode()
		}
	}
	return "full"
}

// CorrEdges returns the number of distinct global correlation edges across
// all district graphs (each boundary edge appears in several districts but
// is counted once), plus the number of cross-boundary edges among them —
// edges whose endpoints are owned by different districts.
func (v *View) CorrEdges() (edges, boundary int) {
	if v.plan.Identity() {
		return v.shards[0].Graph().NumEdges(), 0
	}
	seen := make(map[uint64]bool)
	for d, m := range v.shards {
		if m == nil {
			continue
		}
		members := v.plan.Members(d)
		g := m.Graph()
		for l := range members {
			for _, e := range g.Neighbors(roadnet.RoadID(l)) {
				if e.To <= roadnet.RoadID(l) {
					continue // each undirected edge once per graph
				}
				gu, gv := members[l], members[e.To]
				if gu > gv {
					gu, gv = gv, gu
				}
				key := uint64(gu)<<32 | uint64(gv)
				if seen[key] {
					continue
				}
				seen[key] = true
				edges++
				if v.plan.Owner(gu) != v.plan.Owner(gv) {
					boundary++
				}
			}
		}
	}
	return edges, boundary
}

// BoundaryEdges returns the number of owned↔halo correlation edges inside
// district d's graph — the edges the stitch rounds carry information across.
func (v *View) BoundaryEdges(d int) int {
	m := v.shards[d]
	if m == nil || v.plan.Identity() {
		return 0
	}
	g := m.Graph()
	count := 0
	for l := 0; l < g.NumRoads(); l++ {
		owned := v.plan.OwnsLocal(d, roadnet.RoadID(l))
		for _, e := range g.Neighbors(roadnet.RoadID(l)) {
			if e.To <= roadnet.RoadID(l) {
				continue
			}
			if owned != v.plan.OwnsLocal(d, e.To) {
				count++
			}
		}
	}
	return count
}

// Estimate is the result of one estimation round.
type Estimate struct {
	// Slot the estimate is for.
	Slot int
	// ModelVersion is the version of the view the round resolved at entry
	// and ran on; under a Store it identifies which published view produced
	// the estimate.
	ModelVersion uint64
	// Speeds holds per-road speed estimates in m/s; 0 means the road has no
	// history and cannot be estimated.
	Speeds []float64
	// Rels holds the relative-speed estimates behind Speeds.
	Rels []float64
	// TrendUp holds the inferred trend per road.
	TrendUp []bool
	// PUp holds the trend marginals from the graphical model.
	PUp []float64
}

// EstimateOptions tweak a single estimation round (ablations).
type EstimateOptions struct {
	// FlatHLM disables the hierarchical schedule (ablation A2).
	FlatHLM bool
	// TrendFree disables the trend step entirely: no graphical model, and
	// every regression uses its trend-agnostic variant (ablation A1 — the
	// paper's core "from trends to speeds" claim is the gap this opens).
	TrendFree bool
	// NoSeedModel disables the seed-conditional regressions, leaving only
	// the generic propagation model (ablation A2: the value of the
	// hierarchy's seed level).
	NoSeedModel bool
	// Engine overrides the trend engine for this call only.
	Engine mrf.Engine
}

// validateSeedSpeeds rejects out-of-range roads and unusable speeds up front.
// Non-finite speeds must be rejected here: a single +Inf seed would otherwise
// poison Rels/Speeds network-wide through the regressions.
func validateSeedSpeeds(n int, seedSpeeds map[roadnet.RoadID]float64) error {
	for road, speed := range seedSpeeds {
		if int(road) < 0 || int(road) >= n {
			return fmt.Errorf("core: seed road %d out of range: %w", road, ErrInvalidInput)
		}
		if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
			return fmt.Errorf("core: invalid seed speed %v on road %d: %w", speed, road, ErrInvalidInput)
		}
	}
	return nil
}

// Estimate runs one estimation round across all districts for one slot given
// crowdsourced seed speeds (absolute, m/s). Seeds with no historical mean are
// ignored — their relative speed is undefined. Cancellation or deadline
// expiry of ctx is observed between phases and between BP message rounds
// inside the trend phase (per district), aborting the round with an error
// satisfying errors.Is against the context's error. Serving layers thread
// each request's context here so a disconnected client stops paying for
// inference it will never read.
func (v *View) Estimate(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64) (*Estimate, error) {
	return v.EstimateWith(ctx, slot, seedSpeeds, EstimateOptions{})
}

// EstimateFromCrowd converts raw crowd reports into the seed-speed map and
// runs Estimate; the convenience used by the real-time loop.
func (v *View) EstimateFromCrowd(ctx context.Context, slot int, reports []crowd.Report) (*Estimate, error) {
	seeds := make(map[roadnet.RoadID]float64, len(reports))
	for _, r := range reports {
		seeds[r.Road] = r.Speed
	}
	return v.Estimate(ctx, slot, seeds)
}

// EstimateWith is Estimate with per-call overrides. The round span nests
// under any span already on ctx and is ended on every path, including
// cancellation; the round latency and the round/cancel counters are recorded
// here once per round, whatever the district count.
func (v *View) EstimateWith(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64, opts EstimateOptions) (*Estimate, error) {
	ctx, roundSpan := obs.StartSpan(ctx, "core.estimate")
	out, err := v.estimateWith(ctx, slot, seedSpeeds, opts)
	estimateSeconds("total").Observe(roundSpan.End().Seconds())
	if err == nil {
		estimateRounds.Inc()
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		estimateCanceled.Inc()
	}
	return out, err
}

// shardRound is the per-district state of one sharded estimation round.
type shardRound struct {
	m         *Model
	d         int // district index
	seedModel *hlm.SeedModel
	seedRels  map[roadnet.RoadID]float64 // local IDs
	preRels   []float64
	priors    []float64
	trends    *mrf.Result
	pUp       []float64
	trendUp   []bool
	rels      []float64
}

// estimateWith is the uninstrumented round body and the only code that
// sequences the phases: every district runs the Model phase methods —
// seedRels, prePass, trendPriors, inferTrends, fuseTrends and speedRels, or
// trendFreeRels alone — fanned out in parallel, with the boundary-stitching
// exchange spliced between trend-inference rounds. ctx carries the round span
// so the per-phase spans nest under it. Each district loads its seed-model
// snapshot exactly once and threads it through both regression passes, so a
// concurrent Prepare cannot hand one round two different models. With one
// district the fan-out is inline, no stitch round runs and the district's
// slices are the result (TestViewK1Golden pins that round).
func (v *View) estimateWith(ctx context.Context, slot int, seedSpeeds map[roadnet.RoadID]float64, opts EstimateOptions) (*Estimate, error) {
	n := v.net.NumRoads()
	if err := validateSeedSpeeds(n, seedSpeeds); err != nil {
		return nil, err
	}

	// Route each seed to every district it is a member of: the owner uses it
	// as local evidence; districts holding it in their halo see the same
	// observation instead of a stale prior.
	k := v.plan.NumDistricts()
	localSpeeds := make([]map[roadnet.RoadID]float64, k)
	if v.plan.Identity() {
		localSpeeds[0] = seedSpeeds
	} else {
		for road, speed := range seedSpeeds {
			for d := 0; d < k; d++ {
				if l, ok := v.plan.Local(d, road); ok {
					if localSpeeds[d] == nil {
						localSpeeds[d] = make(map[roadnet.RoadID]float64)
					}
					localSpeeds[d][l] = speed
				}
			}
		}
	}

	states := make([]*shardRound, 0, k)
	stateOf := make([]int, k)
	for d := range stateOf {
		stateOf[d] = -1
	}
	for d, m := range v.shards {
		if m == nil {
			continue
		}
		stateOf[d] = len(states)
		states = append(states, &shardRound{m: m, d: d})
	}

	// Phase fan-out: every district runs pre-pass, priors and its first
	// trend inference (or the whole trend-free regression) concurrently.
	//lint:hotpath-ok one task closure per phase fan-out (a handful of districts, each doing O(roads) work); EachCtx's task-level API takes a closure by design
	if err := par.EachCtx(ctx, len(states), 0, func(i int) error {
		st := states[i]
		st.seedModel = st.m.seedModel.Load()
		st.seedRels = st.m.seedRels(slot, localSpeeds[st.d])
		if opts.TrendFree {
			rels, err := st.m.trendFreeRels(ctx, slot, st.seedRels, st.seedModel, opts)
			if err != nil {
				return err
			}
			// No graphical model: neutral marginals, trend bits from the rels.
			st.rels, st.pUp, st.trendUp = rels, make([]float64, len(rels)), make([]bool, len(rels))
			for l, rel := range rels {
				st.pUp[l] = 0.5
				st.trendUp[l] = rel >= 1
			}
			return nil
		}
		preRels, err := st.m.prePass(ctx, slot, st.seedRels, st.seedModel, opts.NoSeedModel)
		if err != nil {
			return err
		}
		st.preRels = preRels
		st.priors = st.m.trendPriors(slot, st.seedRels)
		trends, err := st.m.inferTrends(ctx, st.priors, opts.Engine, st.m.warm)
		st.trends = trends
		return err
	}); err != nil {
		return nil, err
	}

	// Boundary stitching: between bounded rounds, each *frontier* halo
	// road's prior is replaced by its owning district's current marginal,
	// and every district re-infers warm-started from its previous beliefs.
	// The frontier — members further than haloHops − corrRadius from the
	// owned set — is exactly where local inference is missing information:
	// those roads have correlation edges the district's truncated graph
	// cannot see, so the owner's posterior is strictly better-informed than
	// the raw prior. Interior halo roads are deliberately left alone: their
	// full neighbourhood is inside the district, the local inference already
	// agrees with the owner's, and overwriting their priors with posteriors
	// would double-count the edge evidence and drive the exchange away from
	// the monolithic fixpoint rather than toward it.
	if !v.plan.Identity() && !opts.TrendFree {
		for round := 1; round < v.stitchRounds; round++ {
			for _, st := range states {
				members := v.plan.Members(st.d)
				hops := v.plan.MemberHops(st.d)
				for l, g := range members {
					if int(hops[l]) <= v.frontierHops {
						continue // owned or interior halo: locally exact
					}
					owner := v.plan.Owner(g)
					os := stateOf[owner]
					ol, _ := v.plan.Local(owner, g)
					st.priors[l] = states[os].trends.PUp[ol]
				}
			}
			//lint:hotpath-ok one task closure per stitch round (a handful of districts, each doing O(roads) work); EachCtx's task-level API takes a closure by design
			if err := par.EachCtx(ctx, len(states), 0, func(i int) error {
				st := states[i]
				warm := st.m.warm
				if st.trends.Beliefs != nil {
					warm = st.trends.Beliefs
				}
				trends, err := st.m.inferTrends(ctx, st.priors, opts.Engine, warm)
				if err != nil {
					return err
				}
				st.trends = trends
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}

	// Fusion and the trend-conditioned regression, again per district.
	if !opts.TrendFree {
		//lint:hotpath-ok one task closure per fusion fan-out (a handful of districts, each doing O(roads) work); EachCtx's task-level API takes a closure by design
		if err := par.EachCtx(ctx, len(states), 0, func(i int) error {
			st := states[i]
			st.pUp, st.trendUp = st.m.fuseTrends(st.trends.PUp, st.preRels, st.seedRels)
			rels, err := st.m.speedRels(ctx, slot, st.seedRels, st.trendUp, st.pUp, st.seedModel, opts)
			st.rels = rels
			return err
		}); err != nil {
			return nil, err
		}
	}

	// Merge: each global road's estimate comes from its owning district. The
	// identity plan's one district owns every road under its global ID, so
	// its slices are the result as they stand.
	out := &Estimate{Slot: slot, ModelVersion: v.version}
	if v.plan.Identity() && len(states) == 1 {
		st := states[0]
		out.Speeds, out.Rels, out.TrendUp, out.PUp = hlm.SpeedsOf(st.m.DB(), slot, st.rels), st.rels, st.trendUp, st.pUp
		return out, nil
	}
	out.Speeds, out.Rels, out.TrendUp, out.PUp = make([]float64, n), make([]float64, n), make([]bool, n), make([]float64, n)
	for _, st := range states {
		speeds := hlm.SpeedsOf(st.m.DB(), slot, st.rels)
		for l, g := range v.plan.Members(st.d) {
			if v.plan.OwnsLocal(st.d, roadnet.RoadID(l)) {
				out.Speeds[g], out.Rels[g], out.TrendUp[g], out.PUp[g] = speeds[l], st.rels[l], st.trendUp[l], st.pUp[l]
			}
		}
	}
	return out, nil
}

// SelectSeeds chooses k seed roads across all districts and prepares each
// district's seed-conditional model; returned IDs are global. On a
// one-district view the configured selector runs unchanged; a sharded view
// always uses the merged lazy greedy (seedsel.SelectShardedCtx) over
// per-district candidate heaps — exact greedy on the block-diagonal
// objective, so the (1−1/e) guarantee is preserved with respect to it.
func (v *View) SelectSeeds(ctx context.Context, k int) ([]roadnet.RoadID, error) {
	if v.plan.Identity() {
		return v.shards[0].SelectSeeds(ctx, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	probs := make([]seedsel.ShardProblem, 0, len(v.shards))
	districts := make([]int, 0, len(v.shards))
	for d, m := range v.shards {
		if m == nil {
			continue
		}
		members := v.plan.Members(d)
		cands := make([]roadnet.RoadID, 0, len(members))
		for l := range members {
			if v.plan.OwnsLocal(d, roadnet.RoadID(l)) {
				cands = append(cands, roadnet.RoadID(l))
			}
		}
		probs = append(probs, seedsel.ShardProblem{Problem: m.Problem(), Candidates: cands})
		districts = append(districts, d)
	}
	picks, err := seedsel.SelectShardedCtx(ctx, probs, k)
	if err != nil {
		return nil, err
	}
	seeds := make([]roadnet.RoadID, len(picks))
	for i, p := range picks {
		seeds[i] = v.plan.Members(districts[p.Shard])[p.Road]
	}
	if err := v.Prepare(ctx, seeds); err != nil {
		return nil, err
	}
	return seeds, nil
}

// Prepare trains every district's seed-conditional regressions for a fixed
// global seed set; districts holding none of the seeds are left untouched.
// Each district specializes to the subset of seeds it holds as members (its
// own plus halo seeds), matching the routing an estimation round applies.
func (v *View) Prepare(ctx context.Context, seeds []roadnet.RoadID) error {
	if v.plan.Identity() {
		return v.shards[0].Prepare(ctx, seeds)
	}
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= v.net.NumRoads() {
			return fmt.Errorf("core: seed road %d out of range [0,%d): %w", s, v.net.NumRoads(), ErrInvalidInput)
		}
	}
	states := make([]*Model, 0, len(v.shards))
	local := make([][]roadnet.RoadID, 0, len(v.shards))
	for d, m := range v.shards {
		if m == nil {
			continue
		}
		var ls []roadnet.RoadID
		for _, s := range seeds {
			if l, ok := v.plan.Local(d, s); ok {
				ls = append(ls, l)
			}
		}
		if len(ls) == 0 {
			continue
		}
		states = append(states, m)
		local = append(local, ls)
	}
	return par.EachCtx(ctx, len(states), 0, func(i int) error {
		return states[i].Prepare(ctx, local[i])
	})
}

// SeedBenefit evaluates the (block-diagonal) benefit of a global seed set:
// the sum of each district's benefit over the seeds it holds. Halo seeds
// contribute nothing in non-owning districts — their weights are masked.
func (v *View) SeedBenefit(seeds []roadnet.RoadID) float64 {
	if v.plan.Identity() {
		return v.shards[0].SeedBenefit(seeds)
	}
	var total float64
	for d, m := range v.shards {
		if m == nil {
			continue
		}
		var ls []roadnet.RoadID
		for _, s := range seeds {
			if l, ok := v.plan.Local(d, s); ok && v.plan.OwnsLocal(d, l) {
				ls = append(ls, l)
			}
		}
		if len(ls) > 0 {
			total += m.Problem().Benefit(ls)
		}
	}
	return total
}
