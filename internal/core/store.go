package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Model-lifecycle observability: which version is serving, how often and how
// long rebuilds run, how much ingested data is waiting to be folded in, and —
// on sharded stores — each district's version and footprint.
var (
	modelVersionGauge = obs.Default().Gauge("trendspeed_model_version",
		"Version of the view currently published by the store (bumped on every district swap).")
	modelRebuilds = func(outcome, mode string) *obs.Counter {
		return obs.Default().Counter("trendspeed_model_rebuilds_total",
			"Model rebuilds by outcome (success publishes a new version; error keeps the old model and the buffered observations) and mode (full retrain vs incremental delta rebuild).",
			"outcome", outcome, "mode", mode)
	}
	rebuildSeconds = func(mode string) *obs.Histogram {
		return obs.Default().Histogram("trendspeed_model_rebuild_duration_seconds",
			"Wall time of one model rebuild — history roll-forward, retrain, seed re-specialization and swap — by mode (full vs incremental).",
			obs.DefBuckets, "mode", mode)
	}
	ingestBuffered = obs.Default().Gauge("trendspeed_ingest_buffered_observations",
		"Observations ingested but not yet folded into a published model.")

	shardVersionGauge = func(d int) *obs.Gauge {
		return obs.Default().Gauge("trendspeed_shard_version",
			"Version of each district model in the published view; districts rebuild and bump independently.",
			"shard", strconv.Itoa(d))
	}
	shardRoadsGauge = func(d int) *obs.Gauge {
		return obs.Default().Gauge("trendspeed_shard_roads",
			"Roads owned by each district.",
			"shard", strconv.Itoa(d))
	}
	shardHaloGauge = func(d int) *obs.Gauge {
		return obs.Default().Gauge("trendspeed_shard_halo_roads",
			"Halo roads each district model carries beyond the ones it owns (its view of the correlation neighbourhood across the boundary).",
			"shard", strconv.Itoa(d))
	}
	shardBoundaryGauge = func(d int) *obs.Gauge {
		return obs.Default().Gauge("trendspeed_shard_boundary_edges",
			"Owned↔halo correlation edges inside each district graph — the edges boundary stitching carries information across.",
			"shard", strconv.Itoa(d))
	}
)

// Observation is one crowd-sourced speed report to fold into the historical
// database at the next rebuild: the road, the absolute slot the speed was
// observed in, and the absolute speed in m/s.
type Observation struct {
	Road  roadnet.RoadID
	Slot  int
	Speed float64 // m/s
}

// StoreConfig tunes the background rebuild loop started by Store.Start.
// Both triggers may be combined; a rebuild only runs when at least one
// observation is buffered.
type StoreConfig struct {
	// RebuildEvery rebuilds on a timer; 0 disables the timer trigger.
	RebuildEvery time.Duration
	// RebuildMinObs rebuilds as soon as this many observations are
	// buffered; 0 disables the count trigger.
	RebuildMinObs int
	// IncrementalMaxDirtyFrac enables incremental (delta) rebuilds: when the
	// fraction of a district's roads whose history changed since its
	// published model is at or below this value, that district's rebuild
	// re-scores and retrains only around the delta and warm-starts trend
	// inference from the predecessor's converged beliefs (see
	// buildIncremental). Larger deltas fall back to a full retrain. 0 (or
	// negative) disables incremental rebuilds entirely.
	IncrementalMaxDirtyFrac float64
}

// Store is the lifecycle handle over a sequence of immutable view versions.
// It publishes the current View through an atomic pointer, so View and the
// rounds run on it never block on a rebuild in progress: a caller resolves
// exactly one version with View and runs entirely on it, and a rebuild
// trains successor district models off to the side (on the same
// internal/par worker pool the round hot path uses) before swapping them in
// last-write-wins. Estimation itself is View's job; the Store only adds
// ingest, seed memory and the rebuild lifecycle.
//
// On a sharded store each rebuild is staggered per district: observations are
// routed to the district owning their road, only districts with pending data
// retrain, and every finished district is published immediately as its own
// view version — the city is never torn down wholesale, and an ingest delta
// confined to one district rebuilds exactly one shard.
//
// Ingest buffers observations; Rebuild (or the background loop started by
// Start) rolls them into the per-district history snapshots via
// history.NewBuilderFrom, retrains, re-specializes the last prepared seed set
// so rounds do not regress to the generic propagation model after a swap, and
// publishes the new versions. All methods are safe for concurrent use.
type Store struct {
	opts    Options
	cur     atomic.Pointer[View]
	version atomic.Uint64 // last view version stamp handed out

	// mu guards the ingest buffer, the last prepared seed set, the swap
	// hooks and the loop bookkeeping; it is never held across a rebuild.
	mu        sync.Mutex
	buf       []Observation
	lastSeeds []roadnet.RoadID
	onSwap    []func(old, new *View)
	cfg       StoreConfig
	started   bool
	closed    bool
	// failRebuild is a test seam: when set, rebuild calls it after draining
	// the buffer and aborts with its error, exercising the failure path
	// (observations kept, no version consumed, loop retry) without a real
	// build error.
	failRebuild func() error

	// rebuildMu serializes rebuilds: concurrent Rebuild calls queue, and
	// Close drains an in-flight one by acquiring it.
	rebuildMu sync.Mutex

	// lifetime is cancelled by Close; every rebuild runs under a context
	// joined to it, so shutdown aborts an in-flight retrain at its next
	// stage boundary instead of waiting out the full build.
	lifetime context.Context
	cancel   context.CancelFunc

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewStore trains the version-1 view (opts.Shards district models; one
// unsharded model by default) and returns a store publishing it.
func NewStore(net *roadnet.Network, db *history.DB, opts Options) (*Store, error) {
	//lint:ignore ctxflow NewStore is the documented ctx-less constructor; the initial build is offline and bounded by input size
	v, err := buildView(context.Background(), net, db, opts, 1)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxflow the store's lifetime context is minted here by design: rebuilds must outlive any caller's request ctx and are cancelled only by Close
	lifetime, cancel := context.WithCancel(context.Background())
	s := &Store{
		opts:     opts,
		lifetime: lifetime,
		cancel:   cancel,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.version.Store(v.Version())
	s.cur.Store(v)
	modelVersionGauge.Set(float64(v.Version()))
	for d := 0; d < v.NumShards(); d++ {
		publishShardMetrics(v, d)
	}
	return s, nil
}

// publishShardMetrics refreshes district d's gauges against view v.
func publishShardMetrics(v *View, d int) {
	m := v.Shard(d)
	if m == nil {
		return
	}
	plan := v.Plan()
	shardVersionGauge(d).Set(float64(m.Version()))
	shardRoadsGauge(d).Set(float64(len(plan.Owned(d))))
	shardHaloGauge(d).Set(float64(len(plan.Members(d)) - len(plan.Owned(d))))
	shardBoundaryGauge(d).Set(float64(v.BoundaryEdges(d)))
}

// View returns the currently published view. Callers that make several
// dependent calls (e.g. select seeds, then report the version they were
// selected against) should resolve the view once and use it throughout.
func (s *Store) View() *View { return s.cur.Load() }

// SelectSeeds selects k seeds on view v and records the set so rebuilds
// re-specialize it on successor models. API layers pass the view they
// resolved for the request, so the seed set and the version they cache it
// under come from the same view even if a swap lands mid-request. A
// cancelled selection records nothing, so rebuilds keep re-specializing the
// last complete set.
func (s *Store) SelectSeeds(ctx context.Context, v *View, k int) ([]roadnet.RoadID, error) {
	seeds, err := v.SelectSeeds(ctx, k)
	if err != nil {
		return nil, err
	}
	s.rememberSeeds(seeds)
	return seeds, nil
}

func (s *Store) rememberSeeds(seeds []roadnet.RoadID) {
	cp := append([]roadnet.RoadID(nil), seeds...)
	s.mu.Lock()
	s.lastSeeds = cp
	s.mu.Unlock()
}

// Ingest validates and buffers observations for the next rebuild. The whole
// batch is rejected on the first invalid observation (the error matches
// ErrInvalidInput, so HTTP layers answer 400). It returns the number of
// observations buffered after the append and never blocks on a rebuild.
func (s *Store) Ingest(observations ...Observation) (int, error) {
	n := s.cur.Load().Net().NumRoads()
	for _, o := range observations {
		if int(o.Road) < 0 || int(o.Road) >= n {
			return 0, fmt.Errorf("core: observation road %d out of range [0,%d): %w", o.Road, n, ErrInvalidInput)
		}
		if o.Slot < 0 || o.Slot > math.MaxInt32 {
			return 0, fmt.Errorf("core: observation slot %d out of range: %w", o.Slot, ErrInvalidInput)
		}
		if o.Speed <= 0 || math.IsNaN(o.Speed) || math.IsInf(o.Speed, 0) {
			return 0, fmt.Errorf("core: invalid observation speed %v on road %d: %w", o.Speed, o.Road, ErrInvalidInput)
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("core: store is closed")
	}
	s.buf = append(s.buf, observations...)
	buffered := len(s.buf)
	minObs := s.cfg.RebuildMinObs
	s.mu.Unlock()
	ingestBuffered.Set(float64(buffered))
	if minObs > 0 && buffered >= minObs {
		select {
		case s.kick <- struct{}{}:
		default: // a rebuild request is already pending
		}
	}
	return buffered, nil
}

// BufferedObservations returns how many ingested observations await the
// next rebuild.
func (s *Store) BufferedObservations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// OnSwap registers a hook called after each successful district swap with
// the view that was replaced and the one now published (caches keyed by view
// version use it to drop stale entries). A staggered sharded rebuild runs the
// hooks once per district published. Hooks run on the rebuilding goroutine
// and must not block.
func (s *Store) OnSwap(fn func(old, new *View)) {
	s.mu.Lock()
	s.onSwap = append(s.onSwap, fn)
	s.mu.Unlock()
}

// Rebuild retrains immediately: it drains the buffered observations into
// roll-forwards of the affected districts' history snapshots, rebuilds each
// such district model off to the side, re-specializes the last prepared seed
// set, and swaps each finished district in last-write-wins as its own view
// version. Estimation rounds in flight keep the view they resolved at entry;
// new rounds see each new version as soon as its swap lands. With an empty
// buffer every district rebuilds (a forced full refresh). On error the
// failed districts' models stay published and their observations are kept
// for the next attempt; districts that finished before the error remain
// swapped in. Returns the view published last.
//
// The rebuild is bounded by ctx in addition to the store lifetime: whichever
// of the two is cancelled first aborts the retrain at its next build-stage
// boundary. An aborted district rebuild publishes nothing — its old model
// stays live and its buffered observations are kept for the next attempt —
// and the rebuild is counted under rebuilds_total{outcome="canceled"}.
func (s *Store) Rebuild(ctx context.Context) (*View, error) {
	ctx, cancelJoined := context.WithCancel(ctx)
	defer cancelJoined()
	// Join the store lifetime: Close cancels it, which cancels ctx here.
	stop := context.AfterFunc(s.lifetime, cancelJoined)
	defer stop()

	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	start := time.Now()
	v, mode, err := s.rebuild(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			modelRebuilds("canceled", mode).Inc()
		} else {
			modelRebuilds("error", mode).Inc()
		}
		return nil, err
	}
	rebuildSeconds(mode).Observe(time.Since(start).Seconds())
	modelRebuilds("success", mode).Inc()
	return v, nil
}

// rebuild runs one staggered retrain under rebuildMu and returns the last
// published view and the aggregate mode it was built in ("incremental" only
// when every rebuilt district took the delta path; on error, the mode that
// was being attempted when the first district failed, for metric labels).
func (s *Store) rebuild(ctx context.Context) (*View, string, error) {
	s.mu.Lock()
	pending := append([]Observation(nil), s.buf...)
	seeds := s.lastSeeds
	maxDirtyFrac := s.cfg.IncrementalMaxDirtyFrac
	fail := s.failRebuild
	hooks := append([]func(old, new *View){}, s.onSwap...)
	s.mu.Unlock()
	if fail != nil {
		if err := fail(); err != nil {
			return nil, "full", err
		}
	}

	// Route every pending observation to the district owning its road; the
	// observation becomes local evidence there at local road IDs. (Districts
	// holding the road in their halo keep their stale copy until their own
	// next rebuild — the documented staleness bound of sharding.) The plan is
	// shared by every view this store ever publishes, so routing against the
	// current one is stable across the staggered swaps below.
	first := s.cur.Load()
	plan := first.Plan()
	k := plan.NumDistricts()
	local := make([][]Observation, k)
	districtOf := make([]int, len(pending))
	for i, o := range pending {
		d := plan.Owner(o.Road)
		l, _ := plan.Local(d, o.Road)
		local[d] = append(local[d], Observation{Road: l, Slot: o.Slot, Speed: o.Speed})
		districtOf[i] = d
	}

	allIncremental := true
	rebuiltAny := false
	var firstErr error
	firstErrMode := "full"
	failed := make([]bool, k)
	published := first
	for d := 0; d < k; d++ {
		if first.Shard(d) == nil {
			continue // empty district: nothing to rebuild
		}
		if len(pending) > 0 && len(local[d]) == 0 {
			continue // delta untouched this district; its model stays as-is
		}
		if firstErr != nil {
			// A cancellation aborts the whole stagger; a build error skips
			// only its district so the rest of the city still refreshes.
			if errors.Is(firstErr, context.Canceled) || errors.Is(firstErr, context.DeadlineExceeded) {
				failed[d] = true
				continue
			}
		}
		// Every district must chain off the view the previous district's
		// swap just published, not a pre-loop snapshot that would drop
		// those swaps on the floor.
		//lint:ignore atomicload staggered publish re-reads the freshest view per district
		cur := s.cur.Load()
		m, mode, err := s.rebuildShard(ctx, cur, d, local[d], seeds, maxDirtyFrac)
		if err == nil {
			// A cancellation that raced the last stage must not publish:
			// Close has already begun draining, and the caller asked for the
			// work to stop.
			if cerr := ctx.Err(); cerr != nil {
				err = fmt.Errorf("core: rebuild aborted before publish: %w", cerr)
			}
		}
		if err != nil {
			failed[d] = true
			if firstErr == nil {
				firstErr = err
				firstErrMode = mode
			}
			continue
		}
		if mode != "incremental" {
			allIncremental = false
		}
		rebuiltAny = true

		// Staggered publish: mint the successor view with just this district
		// swapped, bump the view version, refresh the gauges and run the
		// hooks — all before the next district starts training.
		next := s.version.Load() + 1
		shards := append([]*Model(nil), cur.shards...)
		shards[d] = m
		nv := newView(next, cur.net, plan, shards, cur.stitchRounds, cur.frontierHops, d)
		s.version.Store(next)
		s.cur.Store(nv)
		modelVersionGauge.Set(float64(next))
		publishShardMetrics(nv, d)
		for _, h := range hooks {
			h(cur, nv)
		}
		published = nv
	}

	// Drop the consumed prefix of the buffer (Ingest only appends, so the
	// first len(pending) entries are exactly what the stagger handled),
	// keeping observations whose district failed for the next attempt.
	s.mu.Lock()
	var kept []Observation
	for i, o := range pending {
		if failed[districtOf[i]] {
			kept = append(kept, o)
		}
	}
	s.buf = append(kept, s.buf[len(pending):]...)
	buffered := len(s.buf)
	s.mu.Unlock()
	ingestBuffered.Set(float64(buffered))

	if firstErr != nil {
		return nil, firstErrMode, firstErr
	}
	mode := "full"
	if rebuiltAny && allIncremental {
		mode = "incremental"
	}
	return published, mode, nil
}

// rebuildShard retrains district d of view cur with its routed observations
// folded in (local road IDs), returning the successor model and the mode it
// was built in. The district version advances independently of the view
// version; on an unsharded store the two stay in lockstep.
func (s *Store) rebuildShard(ctx context.Context, cur *View, d int, pending []Observation, seeds []roadnet.RoadID, maxDirtyFrac float64) (*Model, string, error) {
	old := cur.Shard(d)
	builder, err := history.NewBuilderFrom(old.DB())
	if err != nil {
		return nil, "full", fmt.Errorf("core: rolling district %d history forward: %w", d, err)
	}
	for _, o := range pending {
		// Validated at Ingest; a failure here means the builder and store
		// disagree on validity and must abort the rebuild, not skip data.
		if err := builder.Add(o.Road, o.Slot, o.Speed); err != nil {
			return nil, "full", fmt.Errorf("core: folding in observation: %w", err)
		}
	}
	db := builder.Finalize()
	sopts := shardOptions(s.opts, cur.Plan(), d)
	version := old.Version() + 1

	// Delta path: when the district's dirty fraction is small enough,
	// rebuild around the delta. Its graph equals a full build's, so a
	// failure there would fail a full build too: there is no fallback.
	mode := "full"
	var m *Model
	dirty := builder.Dirty()
	if dirty != nil && maxDirtyFrac > 0 &&
		float64(len(dirty.Roads)) <= maxDirtyFrac*float64(db.NumRoads()) {
		mode = "incremental"
		m, err = buildIncremental(ctx, old, db, dirty, sopts, version)
	} else {
		m, err = build(ctx, old.Net(), db, sopts, version)
	}
	if err != nil {
		return nil, mode, fmt.Errorf("core: rebuilding district %d: %w", d, err)
	}
	ls := seeds
	if cur.Sharded() {
		ls = nil
		for _, g := range seeds {
			if l, ok := cur.Plan().Local(d, g); ok {
				ls = append(ls, l)
			}
		}
	}
	if len(ls) > 0 {
		if err := m.Prepare(ctx, ls); err != nil {
			return nil, mode, fmt.Errorf("core: re-specializing seed set: %w", err)
		}
	}
	return m, mode, nil
}

// Start configures the store and launches the background rebuild loop when
// at least one trigger is enabled. The config is recorded even when both
// triggers are disabled — notably IncrementalMaxDirtyFrac, which direct
// Rebuild calls honour without any loop running. Once the loop is running,
// later calls are no-ops and their configs are ignored (except that
// RebuildMinObs keeps gating Ingest's kick signal).
func (s *Store) Start(cfg StoreConfig) {
	s.mu.Lock()
	if s.closed || s.started {
		s.mu.Unlock()
		return
	}
	s.cfg = cfg
	if cfg.RebuildEvery <= 0 && cfg.RebuildMinObs <= 0 {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.loop(cfg)
}

func (s *Store) loop(cfg StoreConfig) {
	defer close(s.done)
	var tick <-chan time.Time
	if cfg.RebuildEvery > 0 {
		t := time.NewTicker(cfg.RebuildEvery)
		defer t.Stop()
		tick = t.C
	}
	failures := 0
	for {
		select {
		case <-s.stop:
			return
		case <-tick:
		case <-s.kick:
		}
		if s.BufferedObservations() == 0 {
			continue
		}
		// Errors keep the old models serving and their observations buffered;
		// the rebuilds_total{outcome="error"} counter is the alert signal.
		if _, err := s.Rebuild(s.lifetime); err != nil {
			// Back off before the retry below re-arms: a persistently
			// failing build must not spin the loop hot.
			failures++
			backoff := time.Duration(failures) * 100 * time.Millisecond
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			select {
			case <-s.stop:
				return
			case <-time.After(backoff):
			}
		} else {
			failures = 0
		}
		// Re-check the trigger condition: a min-obs kick raised while the
		// rebuild above was in flight was consumed by it, and a failed
		// rebuild keeps its observations buffered with no future kick
		// coming — either way, ≥ RebuildMinObs observations would sit
		// stranded forever with no timer and no further ingest. Re-arm the
		// kick so the next iteration picks them up.
		if cfg.RebuildMinObs > 0 && s.BufferedObservations() >= cfg.RebuildMinObs {
			select {
			case s.kick <- struct{}{}:
			default:
			}
		}
	}
}

// Close stops the background loop, cancels the store lifetime — aborting an
// in-flight rebuild (whether loop-triggered or a concurrent Rebuild call) at
// its next build-stage boundary — and then drains it, so shutdown neither
// kills a retrain halfway through a swap nor waits out a full retrain it no
// longer wants. Ingest fails after Close; the published view remains
// usable. Close is idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.done
		}
		return
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	// Cancel before draining: an in-flight rebuild observes the cancelled
	// lifetime at its next stage boundary and unwinds without publishing.
	s.cancel()
	if started {
		close(s.stop)
		<-s.done
	}
	// Wait out any rebuild still running (e.g. one started by a direct
	// Rebuild call racing shutdown).
	s.rebuildMu.Lock()
	//lint:ignore SA2001 acquiring and releasing is the drain: Rebuild holds
	// this mutex for the whole retrain, so the Lock above blocks until any
	// in-flight rebuild has finished its swap.
	s.rebuildMu.Unlock()
}
