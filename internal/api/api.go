// Package api exposes a core.Store — the versioned model lifecycle — as a
// JSON-over-HTTP service: the deployment surface a traffic-information
// product would put in front of the paper's system. Endpoints:
//
//	GET  /health              liveness probe
//	GET  /v1/info             network and model statistics
//	GET  /v1/model            current model version, build metadata, staleness
//	GET  /v1/seeds?k=NN       select a seed set of size k (cached per (k, model version))
//	GET  /v1/roads/{id}       road metadata + historical profile for a slot
//	POST /v1/estimate         run one estimation round from crowd reports
//	POST /v1/observations     ingest crowd observations for the next model rebuild
//	POST /v1/map              estimation round rendered as an ASCII congestion map
//	GET  /metrics             Prometheus text exposition of internal/obs (Config.Metrics)
//
// With Config.Debug (or via DebugMux for a separate listener) the server
// also mounts /debug/pprof/*, /debug/vars (expvar) and /debug/trace (the
// obs span ring as JSON).
//
// Every route passes through an instrumentation middleware that reports a
// per-route request counter (split by status class), a latency histogram
// and an in-flight gauge into the obs default registry; a panicking handler
// is recovered into a 500 so the gauge and counters stay truthful.
//
// The handler is safe for concurrent use. Each request resolves exactly one
// model version from the store at entry and runs entirely on that immutable
// artifact; /v1/estimate and /v1/seeds report the version they ran on as
// model_version. Background rebuilds triggered by ingested observations
// swap a successor model in without blocking any request in flight. Seed
// selection is deduplicated per (budget k, model version) in single-flight
// style — concurrent requests for the same key share one selection run —
// and cached entries for superseded model versions are dropped the moment
// a rebuild swaps, so /v1/seeds can never serve seeds computed against a
// stale model.
//
// # Deadlines and load shedding
//
// Every request's context is threaded into the inference it triggers, so a
// disconnected client (or an expired per-request deadline, Config.
// EstimateTimeout) cancels BP message rounds mid-flight instead of running
// them to completion for nobody. The estimate path (/v1/estimate, /v1/map)
// additionally passes an admission semaphore (Config.MaxInflightEstimates):
// a request that finds it full waits at most Config.EstimateAdmitWait and is
// then shed with 429 + Retry-After — admission control *before* the
// expensive work, so overload degrades into fast, explicit rejections
// rather than a growing convoy of slow successes. Deadline expiry
// mid-inference answers 503 + Retry-After; a client that went away answers
// the nginx-convention 499 (nobody reads it, but the metrics stay honest).
package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/roadnet"
)

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the caller disconnected before the response was ready. No body
// reaches anyone; the value exists so the request counters separate
// abandoned requests from real 4xx/5xx.
const statusClientClosedRequest = 499

// Request-body ceilings. Both decode paths hard-cap the body before the JSON
// decoder sees it (http.MaxBytesReader), answering 413 past the limit:
// an unbounded decode would let one client OOM the server with a single
// request. Estimates carry at most one report per road (~tens of bytes
// each), so 1 MiB covers city-scale seed sets with two orders of magnitude
// of slack; ingestion batches are bulk data and get 8 MiB.
const (
	maxEstimateBody     = 1 << 20
	maxObservationsBody = 8 << 20
)

// defaultAdmitWait bounds how long a request may wait for admission when the
// estimate semaphore is full. Long enough to absorb a momentary burst
// (rounds on city graphs run tens of milliseconds), short enough that a
// genuinely overloaded server sheds within one client RTT instead of
// building a queue.
const defaultAdmitWait = 10 * time.Millisecond

// seedCacheMax bounds the seed cache: each entry can hold thousands of
// road IDs and retrains the seed model to produce, so an unbounded map is
// a memory leak under adversarial ?k= scans. Eviction is FIFO — seed sets
// are deterministic per model version, so recomputing an evicted entry is
// only a cost, never a correctness issue. Entries for superseded model
// versions are additionally dropped on every swap.
const seedCacheMax = 32

// seedKey identifies one cached seed selection: the budget and the model
// version it was computed against. Versioned keys are what keep /v1/seeds
// from serving a set selected on a pre-rebuild (or pre-Prepare) model.
type seedKey struct {
	k       int
	version uint64
}

// Config toggles the operational endpoints of a Server.
type Config struct {
	// Metrics mounts GET /metrics (Prometheus text exposition of the obs
	// default registry).
	Metrics bool
	// Debug mounts /debug/pprof/*, /debug/vars and /debug/trace on the main
	// handler. Prefer a separate listener (DebugMux) on shared networks.
	Debug bool

	// MaxInflightEstimates bounds concurrent estimation rounds across
	// /v1/estimate and /v1/map; excess requests wait EstimateAdmitWait for a
	// slot and are then shed with 429 + Retry-After. 0 disables admission
	// control (every request runs immediately).
	MaxInflightEstimates int
	// EstimateTimeout is the per-request inference deadline on the estimate
	// path; a round still running when it expires is cancelled and answered
	// with 503 + Retry-After. 0 means no deadline beyond the client's own.
	EstimateTimeout time.Duration
	// EstimateAdmitWait overrides how long a request may wait for an
	// admission slot before being shed; 0 means defaultAdmitWait.
	EstimateAdmitWait time.Duration

	// Logger receives one structured record per request (level by status:
	// warn ≥ 500, info ≥ 400, debug otherwise) plus shed/deadline events,
	// each carrying the request_id from the X-Request-Id header. nil
	// discards everything.
	Logger *slog.Logger
}

// Server wires a model store into an http.Handler.
type Server struct {
	store *core.Store
	mux   *http.ServeMux
	log   *slog.Logger

	// estSem is the estimate-path admission semaphore (nil = unbounded):
	// a buffered channel whose capacity is Config.MaxInflightEstimates.
	estSem     chan struct{}
	admitWait  time.Duration
	estTimeout time.Duration

	// mu guards only the cache bookkeeping below; it is never held across
	// seed selection, so one slow /v1/seeds cannot serialize the API.
	mu             sync.Mutex
	seedCache      map[seedKey][]roadnet.RoadID
	seedCacheOrder []seedKey // insertion order for FIFO eviction
	seedInflight   map[seedKey]*seedCall
	seedVersion    uint64 // latest published model version, maintained by the swap hook

	// onSeedSelected, when set, runs after a seed selection completes and
	// before its result is considered for caching. Test seam: lets a test
	// interleave a model swap into that window deterministically.
	onSeedSelected func()
}

// seedCall is one in-flight seed selection; duplicate requests for the same
// k wait on done instead of re-running the selection.
type seedCall struct {
	done  chan struct{}
	seeds []roadnet.RoadID
	err   error
}

// NewServer returns a Server for a model store with metrics exposed and
// debug endpoints off; use NewServerWith to choose.
func NewServer(store *core.Store) (*Server, error) {
	return NewServerWith(store, Config{Metrics: true})
}

// NewServerWith returns a Server for a model store.
func NewServerWith(store *core.Store, cfg Config) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("api: model store is required")
	}
	s := &Server{
		store:        store,
		mux:          http.NewServeMux(),
		log:          cfg.Logger,
		admitWait:    cfg.EstimateAdmitWait,
		estTimeout:   cfg.EstimateTimeout,
		seedCache:    map[seedKey][]roadnet.RoadID{},
		seedInflight: map[seedKey]*seedCall{},
		seedVersion:  store.View().Version(),
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	if s.admitWait <= 0 {
		s.admitWait = defaultAdmitWait
	}
	obs.RegisterBuildInfo(obs.Default())
	if cfg.MaxInflightEstimates > 0 {
		s.estSem = make(chan struct{}, cfg.MaxInflightEstimates)
	}
	// Drop seed sets selected against superseded views as soon as a
	// rebuild swaps; lookups are version-keyed anyway, so this is purely
	// reclaiming memory and keeping the entries gauge honest. A staggered
	// sharded rebuild fires this once per district swap.
	store.OnSwap(func(_, v *core.View) { s.dropStaleSeeds(v.Version()) })
	s.handle("GET", "/health", s.handleHealth)
	s.handle("GET", "/v1/info", s.handleInfo)
	s.handle("GET", "/v1/model", s.handleModel)
	s.handle("GET", "/v1/seeds", s.handleSeeds)
	s.handle("GET", "/v1/roads/{id}", s.handleRoad)
	s.handle("POST", "/v1/estimate", s.gated("/v1/estimate", s.handleEstimate))
	s.handle("POST", "/v1/observations", s.handleObservations)
	s.handle("POST", "/v1/map", s.gated("/v1/map", s.handleMap))
	if cfg.Metrics {
		s.handle("GET", "/metrics", handleMetrics)
	}
	if cfg.Debug {
		mountDebug(s.mux)
	}
	return s, nil
}

// handle registers an instrumented route. The pattern (not the concrete
// URL) is the route label, keeping metric cardinality bounded.
func (s *Server) handle(method, pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(method+" "+pattern, s.instrument(pattern, h))
}

// Admission-control observability for the estimate path.
var (
	apiShed = func(route string) *obs.Counter {
		return obs.Default().Counter("trendspeed_api_shed_total",
			"Estimate-path requests shed with 429 because the in-flight semaphore stayed full past the admission wait, by route.",
			"route", route)
	}
	apiInflightWaits = obs.Default().Counter("trendspeed_api_inflight_waits",
		"Estimate-path requests that found the admission semaphore full and waited (whether later admitted or shed).")
)

// gated wraps an estimate-path handler with admission control and the
// per-request inference deadline. Shedding happens *before* any body is read
// or inference starts: when the semaphore is full the request waits at most
// admitWait for a slot, then answers 429 with Retry-After. The semaphore is
// released on the handler's return — the instrumentation middleware's panic
// recovery is outside this wrapper, so even a panicking round frees its
// slot via the deferred receive during the unwind.
func (s *Server) gated(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.estSem != nil {
			select {
			case s.estSem <- struct{}{}:
			default:
				apiInflightWaits.Inc()
				wait := time.NewTimer(s.admitWait)
				select {
				case s.estSem <- struct{}{}:
					wait.Stop()
				case <-wait.C:
					apiShed(route).Inc()
					s.log.LogAttrs(r.Context(), slog.LevelWarn, "request shed",
						slog.String("route", route),
						slog.Int("max_inflight", cap(s.estSem)),
						slog.Duration("admit_wait", s.admitWait))
					w.Header().Set("Retry-After", "1")
					writeErr(w, http.StatusTooManyRequests,
						"server at capacity: %d estimation rounds in flight", cap(s.estSem))
					return
				case <-r.Context().Done():
					wait.Stop()
					writeErr(w, statusClientClosedRequest, "client went away while queued for admission")
					return
				}
			}
			defer func() { <-s.estSem }()
		}
		if s.estTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.estTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// HTTP observability families (see internal/obs for the naming scheme).
var (
	httpInFlight = obs.Default().Gauge("trendspeed_http_in_flight",
		"HTTP requests currently being served.")
	httpRequests = func(route, class string) *obs.Counter {
		return obs.Default().Counter("trendspeed_http_requests_total",
			"HTTP requests served, by route pattern and status class.",
			"route", route, "class", class)
	}
	httpLatency = func(route string) *obs.HDRHistogram {
		return obs.Default().HDRHistogram("trendspeed_http_request_duration_hdr_seconds",
			"HTTP request latency by route pattern, HDR-bucketed for tail quantiles.",
			"route", route)
	}
	httpPanics = func(route string) *obs.Counter {
		return obs.Default().Counter("trendspeed_http_panics_total",
			"Handler panics recovered by the instrumentation middleware, by route pattern.",
			"route", route)
	}
)

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// statusClass buckets a status code into "2xx".."5xx".
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// requestID returns the request's correlation ID: the client-supplied
// X-Request-Id when it is well-formed (load generators and upstream proxies
// send one so their records match the server's), otherwise a fresh random
// hex ID. The validity check keeps attacker-controlled bytes out of logs and
// keeps the ID header-safe.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id != "" && len(id) <= 64 && validRequestID(id) {
		return id
	}
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "rid-unavailable"
	}
	return hex.EncodeToString(raw[:])
}

func validRequestID(id string) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// instrument wraps a handler with the request counter, latency histogram
// and in-flight gauge, and threads the request correlation ID through: the
// ID is echoed in the X-Request-Id response header, carried in the request
// context (so spans and s.log records pick it up), and attached to the
// per-request log line. All metric updates run in a deferred block so a
// panicking handler cannot leak the in-flight gauge or drop the request from
// the counters; the panic itself is recovered into a 500 (counted under the
// 5xx class) rather than re-raised, keeping one bad request from killing the
// connection's error accounting.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := requestID(r)
		w.Header().Set("X-Request-Id", rid)
		ctx := obs.WithRequestID(r.Context(), rid)
		r = r.WithContext(ctx)

		httpInFlight.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				httpPanics(route).Inc()
				if sw.status == 0 {
					// Headers not sent yet: answer a clean 500.
					writeErr(sw, http.StatusInternalServerError, "internal error")
				} else {
					// Response already under way; the client sees a truncated
					// body, but the metrics must still record a server error.
					sw.status = http.StatusInternalServerError
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			elapsed := time.Since(start).Seconds()
			httpInFlight.Dec()
			httpLatency(route).Observe(elapsed)
			httpRequests(route, statusClass(sw.status)).Inc()
			level := slog.LevelDebug
			switch {
			case sw.status >= 500:
				level = slog.LevelWarn
			case sw.status >= 400:
				level = slog.LevelInfo
			}
			s.log.LogAttrs(ctx, level, "request",
				slog.String("route", route),
				slog.String("method", r.Method),
				slog.Int("status", sw.status),
				slog.Float64("duration_seconds", elapsed))
		}()
		h(sw, r)
	}
}

// handleMetrics renders the obs default registry in Prometheus text
// exposition format v0.0.4.
func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = obs.Default().WriteTo(w)
}

// handleTrace dumps the obs default tracer's span ring as JSON.
func handleTrace(w http.ResponseWriter, _ *http.Request) {
	raw, err := obs.DefaultTracer().SpansJSON()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "rendering trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// mountDebug registers the profiling and introspection endpoints on a mux.
func mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/trace", handleTrace)
}

// DebugMux returns a standalone handler with the metrics, pprof, expvar and
// trace endpoints, for serving on a private -debug-addr listener.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", handleMetrics)
	mountDebug(mux)
	return mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeStrict decodes exactly one JSON value from at most limit bytes of
// r.Body into v, writing the error response itself on failure. Oversized
// bodies answer 413 (the caller should split the batch, not retry it);
// malformed JSON, unknown fields and trailing data after the value answer
// 400. The limit is enforced by http.MaxBytesReader, which also closes the
// connection on overflow so the server never drains the remainder.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	tooLarge := func(err error) bool {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return true
		}
		return false
	}
	if err := dec.Decode(v); err != nil {
		if !tooLarge(err) {
			writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		}
		return false
	}
	// Exactly one value per request: trailing garbage after the document is
	// a malformed (or concatenated) payload, not data to ignore.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if !tooLarge(err) {
			writeErr(w, http.StatusBadRequest, "unexpected data after JSON body")
		}
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// infoResponse summarises the deployment.
type infoResponse struct {
	Roads          int     `json:"roads"`
	Junctions      int     `json:"junctions"`
	LengthKM       float64 `json:"length_km"`
	CorrEdges      int     `json:"corr_edges"`
	CorrMeanDegree float64 `json:"corr_mean_degree"`
	SlotMinutes    float64 `json:"slot_minutes"`
	ModelVersion   uint64  `json:"model_version"`
	// Shards is the district count; 1 for an unsharded deployment.
	Shards int `json:"shards"`
	// BoundaryEdges counts correlation edges crossing a district boundary;
	// 0 when unsharded.
	BoundaryEdges int `json:"boundary_edges"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	v := s.store.View()
	net := v.Net()
	edges, boundary := v.CorrEdges()
	meanDeg := 0.0
	if net.NumRoads() > 0 {
		meanDeg = 2 * float64(edges) / float64(net.NumRoads())
	}
	writeJSON(w, http.StatusOK, infoResponse{
		Roads:          net.NumRoads(),
		Junctions:      net.NumNodes(),
		LengthKM:       net.TotalLength() / 1000,
		CorrEdges:      edges,
		CorrMeanDegree: meanDeg,
		SlotMinutes:    v.Calendar().Width().Minutes(),
		ModelVersion:   v.Version(),
		Shards:         v.NumShards(),
		BoundaryEdges:  boundary,
	})
}

// modelResponse describes the currently published view: the aggregate
// lifecycle fields every deployment has, plus one shardStatus per district
// on sharded deployments.
type modelResponse struct {
	Version          uint64  `json:"version"`
	BuiltAt          string  `json:"built_at"`
	BuildSeconds     float64 `json:"build_seconds"`
	Observations     int     `json:"observations"`
	BufferedPending  int     `json:"buffered_observations"`
	StalenessSeconds float64 `json:"staleness_seconds"`
	// RebuildMode is how the most recently rebuilt district was built:
	// "full" or "incremental".
	RebuildMode string `json:"rebuild_mode"`
	// Shards lists every district of a sharded deployment; omitted when
	// unsharded.
	Shards []shardStatus `json:"shards,omitempty"`
}

// shardStatus is one district's slice of the published view.
type shardStatus struct {
	Index int `json:"index"`
	// Version is the district model's own version; districts rebuild and
	// bump independently of the view version.
	Version       uint64 `json:"version"`
	Roads         int    `json:"roads"`
	HaloRoads     int    `json:"halo_roads"`
	BoundaryEdges int    `json:"boundary_edges"`
	BuiltAt       string `json:"built_at"`
	RebuildMode   string `json:"rebuild_mode"`
}

// handleModel reports the published view's version and build metadata —
// the endpoint an operator polls to confirm ingested observations actually
// turned into a rebuild (and, when sharded, which district they landed in).
func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	v := s.store.View()
	resp := modelResponse{
		Version:          v.Version(),
		BuiltAt:          v.BuiltAt().UTC().Format(time.RFC3339Nano),
		BuildSeconds:     v.BuildDuration().Seconds(),
		Observations:     v.ObservationCount(),
		BufferedPending:  s.store.BufferedObservations(),
		StalenessSeconds: time.Since(v.BuiltAt()).Seconds(),
		RebuildMode:      v.RebuildMode(),
	}
	if v.Sharded() {
		plan := v.Plan()
		for d := 0; d < v.NumShards(); d++ {
			m := v.Shard(d)
			if m == nil {
				continue // empty district: no model to report
			}
			resp.Shards = append(resp.Shards, shardStatus{
				Index:         d,
				Version:       m.Version(),
				Roads:         len(plan.Owned(d)),
				HaloRoads:     len(plan.Members(d)) - len(plan.Owned(d)),
				BoundaryEdges: v.BoundaryEdges(d),
				BuiltAt:       m.BuiltAt().UTC().Format(time.RFC3339Nano),
				RebuildMode:   m.RebuildMode(),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// seedsResponse lists a selected seed set.
type seedsResponse struct {
	K            int              `json:"k"`
	Seeds        []roadnet.RoadID `json:"seeds"`
	Benefit      float64          `json:"benefit"`
	ModelVersion uint64           `json:"model_version"`
}

func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	// Resolve the view once: validation, selection, benefit scoring and the
	// reported version all refer to the same artifact even if a rebuild
	// swaps mid-request.
	v := s.store.View()
	kStr := r.URL.Query().Get("k")
	if kStr == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter k")
		return
	}
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 || k > v.Net().NumRoads() {
		writeErr(w, http.StatusBadRequest, "k must be an integer in [1, %d]", v.Net().NumRoads())
		return
	}
	seeds, err := s.seedsFor(r.Context(), v, k)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "seed selection timed out: %v", err)
		case errors.Is(err, context.Canceled):
			writeErr(w, statusClientClosedRequest, "seed selection abandoned: %v", err)
		default:
			writeErr(w, http.StatusInternalServerError, "seed selection failed: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, seedsResponse{
		K: k, Seeds: seeds, Benefit: v.SeedBenefit(seeds), ModelVersion: v.Version(),
	})
}

// seedsFor caches seed sets per (budget, model version): selection retrains
// the seed-conditional model, which is too expensive per request. The cache
// is capped at seedCacheMax entries with FIFO eviction so a ?k= scan cannot
// grow memory without bound, and entries for superseded versions are
// dropped by the store's swap hook.
//
// Selection runs outside the lock in single-flight-per-key style: concurrent
// requests for the same (k, version) share one selection run, and requests
// for different keys proceed in parallel (the seed-selection Problem is
// read-only during Select, and the model publishes the retrained seed
// model atomically).
//
// The shared selection runs under the *initiating* request's context. Two
// cancellation cases follow. A waiter whose own ctx dies stops waiting and
// returns, leaving the selection running for the others. And when the
// initiator disconnects mid-selection it takes the shared run down with it —
// any still-live waiter then retries the loop, finding the cache, a newer
// in-flight call, or becoming the fresh initiator itself, so one impatient
// client can never poison the result for patient ones.
func (s *Server) seedsFor(ctx context.Context, v *core.View, k int) ([]roadnet.RoadID, error) {
	key := seedKey{k: k, version: v.Version()}
	for {
		s.mu.Lock()
		if seeds, ok := s.seedCache[key]; ok {
			s.mu.Unlock()
			seedCacheHits.Inc()
			return seeds, nil
		}
		if c, ok := s.seedInflight[key]; ok {
			s.mu.Unlock()
			seedSingleflightWaits.Inc()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err != nil && ctx.Err() == nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				continue // the initiator's ctx died, not ours: retry
			}
			return c.seeds, c.err
		}
		break
	}
	c := &seedCall{done: make(chan struct{})}
	s.seedInflight[key] = c
	s.mu.Unlock()

	seedCacheMisses.Inc()
	c.seeds, c.err = s.store.SelectSeeds(ctx, v, k)
	if s.onSeedSelected != nil {
		s.onSeedSelected()
	}
	close(c.done)

	s.mu.Lock()
	delete(s.seedInflight, key)
	// Cache only results for the still-published version: if a rebuild
	// swapped while this selection ran, dropStaleSeeds already purged the
	// superseded generation, and inserting this entry afterwards would
	// resurrect a (k, oldVersion) key no lookup can ever hit — wasting one
	// of the seedCacheMax slots and inflating the entries gauge until FIFO
	// eviction happens to reach it. The waiters still get the result below,
	// correctly labelled with the version they asked for.
	if c.err == nil && key.version == s.seedVersion {
		if len(s.seedCacheOrder) >= seedCacheMax {
			oldest := s.seedCacheOrder[0]
			s.seedCacheOrder = s.seedCacheOrder[1:]
			delete(s.seedCache, oldest)
			seedCacheEvictions.Inc()
		}
		s.seedCache[key] = c.seeds
		s.seedCacheOrder = append(s.seedCacheOrder, key)
		seedCacheSize.Set(float64(len(s.seedCache)))
	} else if c.err == nil {
		seedCacheStaleInserts.Inc()
	}
	s.mu.Unlock()
	return c.seeds, c.err
}

// dropStaleSeeds removes cached seed sets whose model version is not
// current. Runs from the store's swap hook, so the cache never retains
// selections for models no request can resolve anymore. In-flight
// selections are left alone: their waiters hold the old *View and get a
// correctly-labelled result — but the completed selection is not cached,
// because seedsFor rechecks the version recorded here before inserting.
func (s *Server) dropStaleSeeds(current uint64) {
	s.mu.Lock()
	s.seedVersion = current
	kept := s.seedCacheOrder[:0]
	for _, key := range s.seedCacheOrder {
		if key.version == current {
			kept = append(kept, key)
			continue
		}
		delete(s.seedCache, key)
		seedCacheInvalidations.Inc()
	}
	s.seedCacheOrder = kept
	seedCacheSize.Set(float64(len(s.seedCache)))
	s.mu.Unlock()
}

// Seed-cache observability.
var (
	seedCacheHits = obs.Default().Counter("trendspeed_api_seed_cache_hits_total",
		"Seed-set cache hits on /v1/seeds.")
	seedCacheMisses = obs.Default().Counter("trendspeed_api_seed_cache_misses_total",
		"Seed-set cache misses on /v1/seeds (each one runs seed selection).")
	seedCacheEvictions = obs.Default().Counter("trendspeed_api_seed_cache_evictions_total",
		"Seed-set cache FIFO evictions.")
	seedCacheSize = obs.Default().Gauge("trendspeed_api_seed_cache_entries",
		"Seed-set cache entries currently held.")
	seedSingleflightWaits = obs.Default().Counter("trendspeed_api_seed_singleflight_waits_total",
		"Requests that waited on an in-flight seed selection for the same k instead of re-running it.")
	seedCacheInvalidations = obs.Default().Counter("trendspeed_api_seed_cache_invalidations_total",
		"Seed-set cache entries dropped because a model rebuild superseded their version.")
	seedCacheStaleInserts = obs.Default().Counter("trendspeed_api_seed_cache_stale_inserts_total",
		"Completed seed selections not cached because a rebuild superseded their model version mid-selection.")
)

// roadResponse describes one road.
type roadResponse struct {
	ID             roadnet.RoadID `json:"id"`
	Class          string         `json:"class"`
	LengthM        float64        `json:"length_m"`
	Name           string         `json:"name,omitempty"`
	HistoricalMean *float64       `json:"historical_mean_mps,omitempty"`
	TrendPriorUp   *float64       `json:"trend_prior_up,omitempty"`
}

func (s *Server) handleRoad(w http.ResponseWriter, r *http.Request) {
	v := s.store.View()
	idStr := strings.TrimSpace(r.PathValue("id"))
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= v.Net().NumRoads() {
		writeErr(w, http.StatusNotFound, "unknown road %q", idStr)
		return
	}
	road := v.Net().Road(roadnet.RoadID(id))
	resp := roadResponse{
		ID:      road.ID,
		Class:   road.Class.String(),
		LengthM: road.Length(),
		Name:    road.Name,
	}
	if slotStr := r.URL.Query().Get("slot"); slotStr != "" {
		slot, err := strconv.Atoi(slotStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "slot must be an integer")
			return
		}
		if mean, ok := v.RoadMean(road.ID, slot); ok {
			resp.HistoricalMean = &mean
			p := v.RoadPUp(road.ID, slot)
			resp.TrendPriorUp = &p
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// estimateRequest is one estimation round's input.
type estimateRequest struct {
	Slot    int          `json:"slot"`
	Reports []seedReport `json:"reports"`
}

type seedReport struct {
	Road  roadnet.RoadID `json:"road"`
	Speed float64        `json:"speed_mps"`
}

// estimateResponse returns the full network estimate.
type estimateResponse struct {
	Slot         int            `json:"slot"`
	Roads        []roadEstimate `json:"roads"`
	Seeded       int            `json:"seeded"`
	ModelVersion uint64         `json:"model_version"`
}

type roadEstimate struct {
	Road     roadnet.RoadID `json:"road"`
	SpeedMPS float64        `json:"speed_mps"`
	Rel      float64        `json:"rel"`
	TrendUp  bool           `json:"trend_up"`
	PUp      float64        `json:"p_up"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	res, ok := s.runEstimate(w, r, s.store.View())
	if !ok {
		return
	}
	out := estimateResponse{Slot: res.Slot, Seeded: res.seeded, ModelVersion: res.ModelVersion}
	out.Roads = make([]roadEstimate, len(res.Speeds))
	for i := range res.Speeds {
		out.Roads[i] = roadEstimate{
			Road:     roadnet.RoadID(i),
			SpeedMPS: res.Speeds[i],
			Rel:      res.Rels[i],
			TrendUp:  res.TrendUp[i],
			PUp:      res.PUp[i],
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// estimateResult carries an estimate plus the seed count used.
type estimateResult struct {
	*core.Estimate
	seeded int
}

// runEstimate parses an estimateRequest and runs the round on view v, writing
// the error response itself on failure. Callers resolve v once per request
// (one atomic load), so the whole round — and the model_version it reports,
// and anything else the handler reads from v — is coherent even when a
// rebuild swaps mid-request.
func (s *Server) runEstimate(w http.ResponseWriter, r *http.Request, v *core.View) (estimateResult, bool) {
	var req estimateRequest
	if !decodeStrict(w, r, maxEstimateBody, &req) {
		return estimateResult{}, false
	}
	if len(req.Reports) == 0 {
		writeErr(w, http.StatusBadRequest, "at least one seed report is required")
		return estimateResult{}, false
	}
	seedSpeeds := make(map[roadnet.RoadID]float64, len(req.Reports))
	for _, rep := range req.Reports {
		// Duplicates would silently last-wins collapse in the map, letting a
		// malformed crowd batch masquerade as a smaller seed set.
		if _, dup := seedSpeeds[rep.Road]; dup {
			writeErr(w, http.StatusBadRequest, "duplicate report for road %d", rep.Road)
			return estimateResult{}, false
		}
		seedSpeeds[rep.Road] = rep.Speed
	}
	// The request context cancels BP rounds the moment the client
	// disconnects or the deadline set by gated expires.
	res, err := v.Estimate(r.Context(), req.Slot, seedSpeeds)
	if err != nil {
		status := estimateStatus(err)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, status, "estimation failed: %v", err)
		return estimateResult{}, false
	}
	return estimateResult{Estimate: res, seeded: len(seedSpeeds)}, true
}

// observationsRequest is a batch of crowd observations for ingestion.
type observationsRequest struct {
	Observations []observationReport `json:"observations"`
}

type observationReport struct {
	Road  roadnet.RoadID `json:"road"`
	Slot  int            `json:"slot"`
	Speed float64        `json:"speed_mps"`
}

// observationsResponse acknowledges an accepted batch.
type observationsResponse struct {
	Accepted     int    `json:"accepted"`
	Buffered     int    `json:"buffered"`
	ModelVersion uint64 `json:"model_version"`
}

// handleObservations ingests crowd observations into the store's rebuild
// buffer. The batch is validated as a unit — one bad report rejects the
// whole POST with 400 and buffers nothing — and an accepted batch answers
// 202: the data is durable in the buffer but only folds into the published
// model at the next rebuild (whose trigger the response's buffered count
// lets the client reason about).
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	var req observationsRequest
	if !decodeStrict(w, r, maxObservationsBody, &req) {
		return
	}
	if len(req.Observations) == 0 {
		writeErr(w, http.StatusBadRequest, "at least one observation is required")
		return
	}
	batch := make([]core.Observation, len(req.Observations))
	for i, o := range req.Observations {
		batch[i] = core.Observation{Road: o.Road, Slot: o.Slot, Speed: o.Speed}
	}
	buffered, err := s.store.Ingest(batch...)
	if err != nil {
		writeErr(w, estimateStatus(err), "ingesting observations: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, observationsResponse{
		Accepted:     len(batch),
		Buffered:     buffered,
		ModelVersion: s.store.View().Version(),
	})
}

// estimateStatus classifies an Estimate error: bad request input is the
// caller's fault (400); a deadline that expired mid-inference means the
// server is momentarily too slow for the configured budget, not broken
// (503, with Retry-After set by the caller); a client that disconnected
// mid-round gets the nginx-convention 499 nobody will read. Anything else
// is an internal inference failure (500), so operators can alert on the
// 5xx class without chasing client noise.
func estimateStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalidInput):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// handleMap runs an estimation round and renders it as a plain-text ASCII
// congestion map. Width comes from ?width= (default 64).
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	width := 64
	if ws := r.URL.Query().Get("width"); ws != "" {
		v, err := strconv.Atoi(ws)
		if err != nil || v < 8 || v > 400 {
			writeErr(w, http.StatusBadRequest, "width must be an integer in [8, 400]")
			return
		}
		width = v
	}
	view := s.store.View()
	res, ok := s.runEstimate(w, r, view)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, render.SpeedMap(view.Net(), res.Rels, width))
	_, _ = io.WriteString(w, render.Legend()+"\n")
}
