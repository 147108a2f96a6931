package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// Model-lifecycle observability: which version is serving, how often and how
// long rebuilds run, and how much ingested data is waiting to be folded in.
var (
	modelVersionGauge = obs.Default().Gauge("trendspeed_model_version",
		"Version of the view currently published by the store (bumped on every swap).")
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
	rebuildFailures = obs.Default().Gauge("trendspeed_model_rebuild_consecutive_failures",
		"Rebuilds that failed with an error since the last successful one; a success zeroes it and a cancelled rebuild leaves it unchanged.")
	ingestBuffered = obs.Default().Gauge("trendspeed_ingest_buffered_observations",
		"Observations ingested but not yet folded into a published model.")
	ingestRefused = obs.Default().Counter("trendspeed_ingest_refused_batches_total",
		"Observation batches Ingest refused because the buffer was full (ErrBufferFull).")
)

// ErrBufferFull marks an Ingest refused because the batch would overfill
// the buffer (see Store.Ingest). Nothing of the batch is buffered; it may
// be sent again once a rebuild has drained the buffer, so HTTP layers
// answer 429 with Retry-After.
var ErrBufferFull = errors.New("ingest buffer full")

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
	// IncrementalMaxDirtyFrac enables incremental (delta) rebuilds: when some
	// roads' history changed since the published view and their fraction is
	// at or below this value, the rebuild re-fits the HLM only around the
	// delta (see build). Larger deltas fall back to a full retrain. 0 (or
	// negative) disables incremental rebuilds entirely.
	IncrementalMaxDirtyFrac float64
}

// Store is the lifecycle handle over a sequence of immutable views. It
// publishes the current View through an atomic pointer, so View and the
// rounds run on it never block on a publication in progress: a caller
// resolves exactly one view with View and runs entirely on it, and a
// rebuild trains the successor view off to the side before swapping it in.
// Estimation itself is View's job; the Store only adds ingest, seed
// selection and the rebuild lifecycle.
//
// Every publication after NewStore runs under the Store's seed turn: a seed
// selection publishes the published view specialised to the set it
// selected, and a rebuild publishes its successor specialised to the set of
// the view it replaces, so the published view always holds the last
// selected set. Ingest buffers observations; Rebuild (or the background loop
// started by Start) rolls them into the history snapshot via
// history.NewBuilderFrom, retrains, and publishes the new version. All
// methods are safe for concurrent use.
type Store struct {
	opts Options
	cur  atomic.Pointer[View]

	// seedTurn is a one-slot semaphore held across every publication after
	// NewStore, so selections and rebuild swaps publish one at a time.
	seedTurn chan struct{}

	// mu guards the ingest buffer, the swap hooks and the loop bookkeeping;
	// it is never held across a rebuild.
	mu      sync.Mutex
	buf     []Observation
	onSwap  []func(old, new *View)
	cfg     StoreConfig
	started bool
	closed  bool
	// failRebuild is a test seam: when set, rebuild calls it after reading
	// the published view and draining the buffer and aborts with its error,
	// exercising the failure path (observations kept, no version consumed,
	// loop retry) without a real build error.
	failRebuild func() error

	// rebuildMu serializes rebuilds: concurrent Rebuild calls queue, and
	// Close drains an in-flight one by acquiring it. It guards failures,
	// the rebuild errors since the last success.
	rebuildMu sync.Mutex
	failures  int

	// lifetime is cancelled by Close; every rebuild runs under a context
	// joined to it, so shutdown aborts an in-flight retrain at its next
	// stage boundary instead of waiting out the full build, and the
	// background loop returns once it is done.
	lifetime context.Context
	cancel   context.CancelFunc

	kick chan struct{}
	done chan struct{}
}

// NewStore trains the version-1 view and returns a store publishing it.
func NewStore(net *roadnet.Network, db *history.DB, opts Options) (*Store, error) {
	//lint:ignore ctxflow NewStore is the documented ctx-less constructor; the initial build is offline and bounded by input size
	v, err := build(context.Background(), net, db, opts, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxflow the store's lifetime context is minted here by design: rebuilds must outlive any caller's request ctx and are cancelled only by Close
	lifetime, cancel := context.WithCancel(context.Background())
	s := &Store{
		opts:     opts,
		lifetime: lifetime,
		cancel:   cancel,
		seedTurn: make(chan struct{}, 1),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.cur.Store(v)
	modelVersionGauge.Set(float64(v.Version()))
	return s, nil
}

// View returns the currently published view. Callers that make several
// dependent calls (e.g. run a round, then report the version it ran on)
// should resolve the view once and use it throughout; SelectSeeds returns
// the view it published for the same reason.
func (s *Store) View() *View { return s.cur.Load() }

// SelectSeeds selects k seeds on the published view and publishes that view
// specialised to them (View.SelectSeeds), returning it with the seeds. It
// holds the seed turn throughout, so selections run one at a time:
// concurrent requests for one set specialise once, and different sets
// specialise one after another. A rebuild that publishes meanwhile waits
// for the turn and specialises its successor to the set published here.
// Waiting for the turn honours ctx, and a cancelled selection publishes
// nothing. The view published is of the same version: only rebuilds bump
// the version and run the OnSwap hooks.
func (s *Store) SelectSeeds(ctx context.Context, k int) (*View, []roadnet.RoadID, error) {
	select {
	case s.seedTurn <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	defer func() { <-s.seedTurn }()
	v, seeds, err := s.cur.Load().SelectSeeds(ctx, k)
	if err != nil {
		return nil, nil, err
	}
	s.cur.Store(v)
	return v, seeds, nil
}

// maxFreeFlowFactor caps an ingested speed at this multiple of its road
// class's free-flow speed: 33.3 m/s on a local road, 100 m/s on a highway.
// No vehicle reports more, and one report past it would rescale its road's
// history, and every speed served on that road, after the next rebuild.
const maxFreeFlowFactor = 4

// Ingest validates and buffers observations for the next rebuild. The whole
// batch is rejected on the first invalid observation (the error matches
// ErrInvalidInput, so HTTP layers answer 400): a road or slot out of range,
// or a speed that is not positive or passes maxFreeFlowFactor times its road
// class's free-flow speed. It returns the number of observations buffered
// after the append and never blocks on a rebuild.
//
// The buffer holds at most as many observations as the published view's
// history holds samples, or one per road when the history holds fewer, so
// it stays within a constant factor of the view it feeds even when no
// rebuild drains it — none is armed, or every one fails. A batch that
// would overfill it is refused whole with an error matching ErrBufferFull.
func (s *Store) Ingest(observations ...Observation) (int, error) {
	v := s.cur.Load()
	n := v.Net().NumRoads()
	for _, o := range observations {
		if int(o.Road) < 0 || int(o.Road) >= n {
			return 0, fmt.Errorf("core: observation road %d out of range [0,%d): %w", o.Road, n, ErrInvalidInput)
		}
		if o.Slot < 0 || o.Slot > math.MaxInt32 {
			return 0, fmt.Errorf("core: observation slot %d out of range: %w", o.Slot, ErrInvalidInput)
		}
		// The ceiling also keeps every speed within the float32 range that
		// Builder.Add accepts, so a buffered observation cannot fail a
		// rebuild.
		ceiling := maxFreeFlowFactor * v.Net().Road(o.Road).Class.FreeFlowSpeed()
		if !(o.Speed > 0 && o.Speed <= ceiling) {
			return 0, fmt.Errorf("core: invalid observation speed %v on road %d (want (0, %.4g] m/s): %w", o.Speed, o.Road, ceiling, ErrInvalidInput)
		}
	}
	limit := max(v.ObservationCount(), n)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("core: store is closed")
	}
	if held := len(s.buf); len(observations) > limit-held {
		s.mu.Unlock()
		ingestRefused.Inc()
		return 0, fmt.Errorf("core: %d observations buffered, %d more would pass the limit of %d: %w", held, len(observations), limit, ErrBufferFull)
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

// OnSwap registers a hook called after each successful rebuild swap with the
// view that was replaced and the one now published (speedserver logs each
// swap with it); a seed selection publishes a view of the same version and
// runs no hooks. Hooks run on the rebuilding goroutine and must not block.
func (s *Store) OnSwap(fn func(old, new *View)) {
	s.mu.Lock()
	s.onSwap = append(s.onSwap, fn)
	s.mu.Unlock()
}

// Rebuild retrains immediately: it drains the buffered observations into a
// roll-forward of the published history snapshot, builds the successor view
// off to the side, and then, under the seed turn, specialises it to the seed
// set of the view it replaces and swaps it in. A set selected while the
// successor was building is therefore the set it is published with, and a
// selection requested during the swap waits for it. Estimation rounds in
// flight keep the view they resolved at entry; new rounds see the new
// version as soon as the swap lands. With an empty buffer the rebuild still
// runs (a forced full refresh). On error the old view stays published and
// the observations stay buffered for the next attempt. Returns the view
// published.
//
// The rebuild is bounded by ctx in addition to the store lifetime: whichever
// of the two is cancelled first aborts the retrain at its next build-stage
// boundary. An aborted rebuild publishes nothing — the old view stays live
// and the buffered observations are kept for the next attempt — and the
// rebuild is counted under rebuilds_total{outcome="canceled"}.
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
			s.failures++
			rebuildFailures.Set(float64(s.failures))
		}
		return nil, err
	}
	rebuildSeconds(mode).Observe(time.Since(start).Seconds())
	modelRebuilds("success", mode).Inc()
	s.failures = 0
	rebuildFailures.Set(0)
	return v, nil
}

// rebuild runs one retrain under rebuildMu and returns the published view and
// the mode it was built in (on error, the mode that was attempted, for metric
// labels).
func (s *Store) rebuild(ctx context.Context) (*View, string, error) {
	old := s.cur.Load()
	s.mu.Lock()
	pending := append([]Observation(nil), s.buf...)
	maxDirtyFrac := s.cfg.IncrementalMaxDirtyFrac
	fail := s.failRebuild
	hooks := append([]func(old, new *View){}, s.onSwap...)
	s.mu.Unlock()
	if fail != nil {
		if err := fail(); err != nil {
			return nil, "full", err
		}
	}

	v, mode, err := s.successor(ctx, old, pending, maxDirtyFrac)
	if err != nil {
		return nil, mode, err
	}
	v, replaced, err := s.publish(ctx, v)
	if err != nil {
		return nil, mode, err
	}
	modelVersionGauge.Set(float64(v.Version()))
	for _, h := range hooks {
		h(replaced, v)
	}

	// Drop the consumed prefix of the buffer: Ingest only appends, so the
	// first len(pending) entries are exactly what this rebuild folded in.
	s.mu.Lock()
	s.buf = append([]Observation(nil), s.buf[len(pending):]...)
	buffered := len(s.buf)
	s.mu.Unlock()
	ingestBuffered.Set(float64(buffered))
	return v, mode, nil
}

// publish swaps the successor v in under the seed turn, specialised to the
// seed set of the view it replaces, and returns the view it published and
// the one it replaced. The wait for the turn honours ctx, and a ctx
// cancelled before the swap publishes nothing.
func (s *Store) publish(ctx context.Context, v *View) (published, replaced *View, err error) {
	select {
	case s.seedTurn <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("core: rebuild aborted before publish: %w", ctx.Err())
	}
	defer func() { <-s.seedTurn }()
	replaced = s.cur.Load()
	if v, err = v.WithSeeds(ctx, replaced.seedModel.Seeds()); err != nil {
		return nil, nil, fmt.Errorf("core: re-specializing seed set: %w", err)
	}
	// A cancellation that raced the last stage must not publish: Close has
	// already begun draining, and the caller asked for the work to stop.
	// Rebuild joins the lifetime to ctx on another goroutine, so read both.
	if err := cmp.Or(ctx.Err(), s.lifetime.Err()); err != nil {
		return nil, nil, fmt.Errorf("core: rebuild aborted before publish: %w", err)
	}
	s.cur.Store(v)
	return v, replaced, nil
}

// successor trains the view that follows old with the pending observations
// folded in, returning it and the mode it was built in.
func (s *Store) successor(ctx context.Context, old *View, pending []Observation, maxDirtyFrac float64) (*View, string, error) {
	var builder *history.Builder
	var db *history.DB
	if err := timeStage(ctx, "history_roll_forward", func(context.Context) (err error) {
		if builder, err = history.NewBuilderFrom(old.DB()); err != nil {
			return err
		}
		for _, o := range pending {
			// Validated at Ingest; a failure here means the builder and store
			// disagree on validity and must abort the rebuild, not skip data.
			if err := builder.Add(o.Road, o.Slot, o.Speed); err != nil {
				return fmt.Errorf("folding in observation: %w", err)
			}
		}
		db = builder.Finalize()
		return nil
	}); err != nil {
		return nil, "full", fmt.Errorf("core: rolling history forward: %w", err)
	}
	version := old.Version() + 1

	// Delta path: when the dirty fraction is small enough, rebuild from old
	// around the delta. Only its HLM stage differs from a full build's (its
	// graph is a full build's), so a failure there would fail a full build
	// too: there is no fallback. An empty delta is the forced full refresh,
	// which must also clear the stale group-level predictors earlier delta
	// rebuilds copied.
	var prev *View
	dirty := builder.Dirty()
	if len(dirty) > 0 && maxDirtyFrac > 0 && float64(len(dirty)) <= maxDirtyFrac*float64(db.NumRoads()) {
		prev = old
	}
	mode := rebuildMode(prev)
	v, err := build(ctx, old.Net(), db, s.opts, version, prev, dirty)
	if err != nil {
		return nil, mode, fmt.Errorf("core: rebuilding model: %w", err)
	}
	return v, mode, nil
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
		case <-s.lifetime.Done():
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
			case <-s.lifetime.Done():
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
	// Cancelling the lifetime stops the loop, and an in-flight rebuild
	// observes it at its next stage boundary and unwinds without publishing.
	s.cancel()
	if started {
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
