// Command tracedserver is speedserver's default wiring (the default city, one
// district, the Jacobi bp engine, lazy seed selection, admission control and
// the same HTTP timeouts) with timing wrappers at the public seams the
// benchmark attributes latency to: the api.Server handler, the mrf.Engine
// and the seedsel.Selector. For each request that carries an X-Request-Id it
// keeps one record in memory, completed with the core's own phase spans for
// that ID, and hands the records over at GET /bench/snapshot.
//
// bench/tsbench --trace 1 runs it in place of speedserver; the parity test
// in bench/tsbench checks that it answers exactly as speedserver does.
//
// Usage:
//
//	tracedserver -addr 127.0.0.1:8081 [-rebuild-min-obs 4000]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/bench/benchtrace"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mrf"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracedserver: ")
	addr := flag.String("addr", ":8080", "listen address")
	rebuildObs := flag.Int("rebuild-min-obs", 0, "rebuild as soon as this many observations are buffered (0 disables, as in speedserver)")
	flag.Parse()

	d, err := dataset.Build(dataset.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	rec := &recorder{pending: map[string]*benchtrace.Request{}}
	opts := core.DefaultOptions()
	// The same engine core builds when Options.Engine is nil.
	bp, err := mrf.NewEngine("bp", opts.BP)
	if err != nil {
		log.Fatal(err)
	}
	opts.Engine = timedEngine{Engine: bp, rec: rec}
	opts.Selector = timedSelector{rec: rec}
	store, err := core.NewStore(d.Net, d.DB, opts)
	if err != nil {
		log.Fatal(err)
	}
	rec.addBuild(store.View().BuildDuration())
	store.OnSwap(func(old, v *core.View) {
		rec.addBuild(v.BuildDuration())
		log.Printf("model v%d → v%d (%d observations, rebuilt in %v)",
			old.Version(), v.Version(), v.ObservationCount(), v.BuildDuration().Round(time.Millisecond))
	})
	if *rebuildObs > 0 {
		// speedserver's -incremental-max-dirty-frac default.
		store.Start(core.StoreConfig{RebuildMinObs: *rebuildObs, IncrementalMaxDirtyFrac: 0.25})
	}
	srv, err := api.NewServerWith(store, api.Config{
		Metrics:              true,
		MaxInflightEstimates: 2 * runtime.GOMAXPROCS(0),
		EstimateTimeout:      10 * time.Second,
		Logger:               obs.NewLogger(os.Stderr, slog.LevelInfo),
	})
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+benchtrace.SnapshotPath, rec.serveSnapshot)
	mux.Handle("/", rec.wrap(srv))
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      60 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("shutdown: %v", err)
		}
		store.Close()
	}
}

// recorder holds the records of finished requests and of those in flight,
// keyed by request ID so the engine and selector wrappers, which see only a
// context, can add their time to the right request, and the build time of
// every model version published.
type recorder struct {
	mu      sync.Mutex
	done    []benchtrace.Request
	pending map[string]*benchtrace.Request
	builds  []int64
}

func (r *recorder) addBuild(d time.Duration) {
	r.mu.Lock()
	r.builds = append(r.builds, int64(d))
	r.mu.Unlock()
}

// add applies fn to the in-flight record of request id, if it is traced.
func (r *recorder) add(id string, fn func(*benchtrace.Request)) {
	r.mu.Lock()
	if q := r.pending[id]; q != nil {
		fn(q)
	}
	r.mu.Unlock()
}

// wrap times next for every request carrying an X-Request-Id and not marked
// untraced.
func (r *recorder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get("X-Request-Id")
		if id == "" || req.Header.Get(benchtrace.UntracedHeader) == "off" {
			next.ServeHTTP(w, req)
			return
		}
		q := &benchtrace.Request{ID: id}
		r.mu.Lock()
		r.pending[id] = q
		r.mu.Unlock()

		start := time.Now()
		next.ServeHTTP(w, req)
		handler := int64(time.Since(start))

		// The core records its round and phase spans in the obs tracer's
		// ring under the request ID; with at most a few requests in flight
		// this request's spans are still among its last 256.
		spans := obs.DefaultTracer().Spans()
		r.mu.Lock()
		delete(r.pending, id)
		q.Handler = handler
		for _, sp := range spans {
			if sp.RequestID != id {
				continue
			}
			ns := int64(sp.DurationSeconds * 1e9)
			switch sp.Name {
			case "core.estimate":
				q.Round += ns
			case "core.estimate/pre_pass":
				q.PrePass += ns
			case "core.estimate/trend":
				q.Trend += ns
			case "core.estimate/speed":
				q.Speed += ns
			case "seed_specialize":
				q.Specialize += ns
			}
		}
		r.done = append(r.done, *q)
		r.mu.Unlock()
	})
}

// serveSnapshot reports and forgets the finished records, with the runtime
// and registry counters tsbench differences across its window.
func (r *recorder) serveSnapshot(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	snap := benchtrace.Snapshot{
		Requests:   r.done,
		Builds:     append([]int64(nil), r.builds...),
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
	}
	r.done = nil
	r.mu.Unlock()
	snap.Metrics = obs.Default().Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		log.Printf("writing snapshot: %v", err)
	}
}

// timedEngine times every Infer call of the wrapped engine.
type timedEngine struct {
	mrf.Engine
	rec *recorder
}

func (e timedEngine) Infer(ctx context.Context, m *mrf.Model, evidence []mrf.Evidence, warm *mrf.Beliefs) (*mrf.Result, error) {
	start := time.Now()
	res, err := e.Engine.Infer(ctx, m, evidence, warm)
	d := int64(time.Since(start))
	e.rec.add(obs.RequestIDFrom(ctx), func(q *benchtrace.Request) {
		q.Infer += d
		q.Infers++
	})
	return res, err
}

// timedSelector times seedsel.Lazy, core's default selector. It implements
// seedsel.ContextSelector as Lazy does, so selection stays cancellable.
type timedSelector struct {
	rec *recorder
}

func (timedSelector) Name() string { return seedsel.Lazy{}.Name() }

func (s timedSelector) Select(p *seedsel.Problem, k int) ([]roadnet.RoadID, error) {
	return s.SelectCtx(context.Background(), p, k)
}

func (s timedSelector) SelectCtx(ctx context.Context, p *seedsel.Problem, k int) ([]roadnet.RoadID, error) {
	start := time.Now()
	seeds, err := seedsel.Lazy{}.SelectCtx(ctx, p, k)
	d := int64(time.Since(start))
	s.rec.add(obs.RequestIDFrom(ctx), func(q *benchtrace.Request) { q.Select += d })
	return seeds, err
}
