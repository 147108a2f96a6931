// Package api exposes a core.Store — the versioned model lifecycle — as a
// JSON-over-HTTP service: the deployment surface a traffic-information
// product would put in front of the paper's system. Endpoints:
//
//	GET  /health              liveness probe
//	GET  /v1/info             network and model statistics
//	GET  /v1/model            current model version, build metadata, staleness
//	GET  /v1/seeds?k=NN       select a seed set of size k on the current model
//	GET  /v1/roads/{id}       road metadata + historical profile for a slot
//	POST /v1/estimate         run one estimation round from crowd reports
//	POST /v1/observations     ingest crowd observations for the next model rebuild
//	POST /v1/map              estimation round rendered as an ASCII congestion map
//	GET  /metrics             Prometheus text exposition of internal/obs (Config.Metrics)
//
// DebugMux serves /debug/pprof/*, /debug/vars (expvar) and /debug/trace (the
// obs span ring as JSON) beside /metrics, for a separate private listener.
//
// Every route passes through an instrumentation middleware that reports a
// per-route request counter (split by status class), a latency histogram
// and an in-flight gauge into the obs default registry; a panicking handler
// is recovered into a 500 so the gauge and counters stay truthful.
//
// The handler is safe for concurrent use. Each request resolves exactly one
// immutable view from the store and runs entirely on it; /v1/estimate and
// /v1/seeds report the version they ran on as model_version. Background
// rebuilds triggered by ingested observations swap a successor in without
// blocking any request in flight. Every /v1/seeds request selects on the
// published view and publishes the view specialised to its set
// (core.Store.SelectSeeds), which specialises only when the published view
// holds another set, so concurrent requests for one budget specialise once,
// and estimates on the last set served run on its model. It reports the
// benefit and version of the view it published.
//
// # Deadlines and load shedding
//
// Every request's context is threaded into the inference it triggers, so a
// disconnected client (or an expired per-request deadline, Config.
// EstimateTimeout) cancels BP message rounds mid-flight instead of running
// them to completion for nobody. The estimate path (/v1/estimate, /v1/map)
// additionally passes an admission semaphore (Config.MaxInflightEstimates):
// a request that finds it full waits at most defaultAdmitWait and is then
// shed with 429 + Retry-After — admission control *before* the
// expensive work, so overload degrades into fast, explicit rejections
// rather than a growing convoy of slow successes. Deadline expiry
// mid-inference answers 503 + Retry-After; a client that went away answers
// the nginx-convention 499 (nobody reads it, but the metrics stay honest).
// /v1/observations answers 429 + Retry-After when the store's ingest
// buffer is full (core.ErrBufferFull) and buffers nothing of the batch.
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
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
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

// Config toggles the operational endpoints of a Server.
type Config struct {
	// Metrics mounts GET /metrics (Prometheus text exposition of the obs
	// default registry).
	Metrics bool

	// MaxInflightEstimates bounds concurrent estimation rounds across
	// /v1/estimate and /v1/map; excess requests wait defaultAdmitWait for a
	// slot and are then shed with 429 + Retry-After. 0 disables admission
	// control (every request runs immediately).
	MaxInflightEstimates int
	// EstimateTimeout is the per-request inference deadline on the estimate
	// path; a round still running when it expires is cancelled and answered
	// with 503 + Retry-After. 0 means no deadline beyond the client's own.
	EstimateTimeout time.Duration

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
	estSem chan struct{}
	// admitWait is how long a request may wait for an admission slot before
	// being shed: defaultAdmitWait, which tests may reset before serving.
	admitWait  time.Duration
	estTimeout time.Duration
}

// NewServerWith returns a Server for a model store.
func NewServerWith(store *core.Store, cfg Config) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("api: model store is required")
	}
	s := &Server{
		store:      store,
		mux:        http.NewServeMux(),
		log:        cfg.Logger,
		admitWait:  defaultAdmitWait,
		estTimeout: cfg.EstimateTimeout,
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	obs.RegisterBuildInfo(obs.Default())
	if cfg.MaxInflightEstimates > 0 {
		s.estSem = make(chan struct{}, cfg.MaxInflightEstimates)
	}
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
// connection's error accounting. The route's latency histogram is resolved
// here, once per route, not on every request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	latency := httpLatency(route)
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
			latency.Observe(elapsed)
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

// DebugMux returns a standalone handler with the metrics, pprof, expvar and
// trace endpoints, for serving on a private -debug-addr listener.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/trace", handleTrace)
	return mux
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it sends the status, so a value encoding/json
// refuses — a non-finite float — answers 500 with an error body rather than
// the status it was meant for and an empty body. Bodies end in a newline, as
// json.Encoder writes them.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: fmt.Sprintf("encoding the response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
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
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	v := s.store.View()
	net := v.Net()
	edges := v.Graph().NumEdges()
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
		SlotMinutes:    v.DB().Cal().Width().Minutes(),
		ModelVersion:   v.Version(),
	})
}

// modelResponse describes the currently published view's version and build
// metadata.
type modelResponse struct {
	Version          uint64  `json:"version"`
	BuiltAt          string  `json:"built_at"`
	BuildSeconds     float64 `json:"build_seconds"`
	Observations     int     `json:"observations"`
	BufferedPending  int     `json:"buffered_observations"`
	StalenessSeconds float64 `json:"staleness_seconds"`
	// RebuildMode is how the view was built: "full" or "incremental".
	RebuildMode string `json:"rebuild_mode"`
}

// handleModel reports the published view's version and build metadata —
// the endpoint an operator polls to confirm ingested observations actually
// turned into a rebuild.
func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	v := s.store.View()
	writeJSON(w, http.StatusOK, modelResponse{
		Version:          v.Version(),
		BuiltAt:          v.BuiltAt().UTC().Format(time.RFC3339Nano),
		BuildSeconds:     v.BuildDuration().Seconds(),
		Observations:     v.ObservationCount(),
		BufferedPending:  s.store.BufferedObservations(),
		StalenessSeconds: time.Since(v.BuiltAt()).Seconds(),
		RebuildMode:      v.RebuildMode(),
	})
}

// seedsResponse lists a selected seed set.
type seedsResponse struct {
	K            int              `json:"k"`
	Seeds        []roadnet.RoadID `json:"seeds"`
	Benefit      float64          `json:"benefit"`
	ModelVersion uint64           `json:"model_version"`
}

func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	kStr := r.URL.Query().Get("k")
	if kStr == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter k")
		return
	}
	roads := s.store.View().Net().NumRoads()
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 || k > roads {
		writeErr(w, http.StatusBadRequest, "k must be an integer in [1, %d]", roads)
		return
	}
	// The benefit and the version reported are those of the view the seeds
	// were selected on and published with, even if a rebuild swaps
	// mid-request.
	v, seeds, err := s.store.SelectSeeds(r.Context(), k)
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
		if mean, ok := v.DB().Mean(road.ID, slot); ok {
			resp.HistoricalMean = &mean
			p := v.DB().PUp(road.ID, slot)
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
	reports := make([]crowd.Report, len(req.Reports))
	for i, rep := range req.Reports {
		reports[i] = crowd.Report{Road: rep.Road, Speed: rep.Speed}
	}
	// The request context cancels BP rounds the moment the client
	// disconnects or the deadline set by gated expires. A duplicate road
	// is invalid input (400).
	res, err := v.EstimateFromCrowd(r.Context(), req.Slot, reports)
	if err != nil {
		status := estimateStatus(err)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeErr(w, status, "estimation failed: %v", err)
		return estimateResult{}, false
	}
	return estimateResult{Estimate: res, seeded: len(reports)}, true
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
// lets the client reason about). A batch the full buffer cannot take
// answers 429 with Retry-After, and the client sends it again later.
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
	if errors.Is(err, core.ErrBufferFull) {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "ingesting observations: %v", err)
		return
	}
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
