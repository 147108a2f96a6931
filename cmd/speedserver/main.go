// Command speedserver serves a versioned model store over HTTP (see
// internal/api for the endpoint list). With -data it loads a datagen
// directory; otherwise it builds a synthetic city preset.
//
// Usage:
//
//	speedserver -city t -addr :8080
//	curl localhost:8080/v1/info
//	curl localhost:8080/v1/model
//	curl 'localhost:8080/v1/seeds?k=50'
//	curl -X POST localhost:8080/v1/estimate -d '{"slot":0,"reports":[{"road":12,"speed_mps":8.5}]}'
//	curl -X POST localhost:8080/v1/observations -d '{"observations":[{"road":12,"slot":0,"speed_mps":8.5}]}'
//	curl localhost:8080/metrics
//
// Model lifecycle: observations POSTed to /v1/observations buffer in the
// store; -rebuild-every and -rebuild-min-obs arm the background rebuild
// loop that folds them into a new immutable model and hot-swaps it without
// interrupting requests. Both default to off, which freezes the model at
// version 1 (the pre-lifecycle behaviour). When the buffered delta touches
// at most -incremental-max-dirty-frac of the network's roads, the rebuild
// runs incrementally (the HLM re-fits only the roads the delta reaches)
// instead of from scratch; set the fraction to 0 to force full rebuilds.
//
// Observability: -metrics (default true) exposes GET /metrics on the main
// address; -debug-addr starts a second listener with /metrics, pprof,
// expvar and the span-trace dump, kept off the public address. Per-request
// structured logs (route, status, duration, request_id) go to stderr;
// -log-format selects json (machine-shipped, the default) or text
// (human-tailed). Operator lifecycle messages stay on the plain log writer.
// On SIGINT or SIGTERM the server drains in-flight requests (up to
// -shutdown-timeout) and waits for any in-flight model rebuild before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("speedserver: ")

	var (
		city        = flag.String("city", "default", "dataset preset when -data is unset: b, t or default")
		data        = flag.String("data", "", "directory with network.json + history.thdb from datagen")
		addr        = flag.String("addr", ":8080", "listen address")
		metrics     = flag.Bool("metrics", true, "expose GET /metrics on the main address")
		debugAddr   = flag.String("debug-addr", "", "optional second listen address for /metrics, /debug/pprof, /debug/vars and /debug/trace")
		shutdownTTL = flag.Duration("shutdown-timeout", 15*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
		rebuildTTL  = flag.Duration("rebuild-every", 0, "rebuild the model on this interval when observations are buffered (0 disables the timer)")
		rebuildObs  = flag.Int("rebuild-min-obs", 0, "rebuild as soon as this many observations are buffered (0 disables the count trigger)")
		incFrac     = flag.Float64("incremental-max-dirty-frac", 0.25, "rebuild incrementally when the buffered delta touches at most this fraction of roads (0 forces full rebuilds)")
		estTimeout  = flag.Duration("estimate-timeout", 10*time.Second, "per-request inference deadline on /v1/estimate and /v1/map; expiry cancels the round and answers 503 (0 disables)")
		maxEst      = flag.Int("max-inflight-estimates", 2*runtime.GOMAXPROCS(0), "max concurrent estimation rounds before excess requests are shed with 429 (0 disables admission control)")
		logFormat   = flag.String("log-format", "json", "per-request structured log encoding on stderr: json or text")
		logLevel    = flag.String("log-level", "info", "minimum structured log level: debug, info, warn or error")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("bad -log-level %q: %v", *logLevel, err)
	}
	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = obs.NewLogger(os.Stderr, level)
	case "text":
		logger = obs.NewTextLogger(os.Stderr, level)
	default:
		log.Fatalf("unknown -log-format %q (want json or text)", *logFormat)
	}

	var net *roadnet.Network
	var db *history.DB
	// dataWhat/dataTook describe the first half of set-up, so a slow start
	// splits into the dataset and the model build in the log.
	dataWhat, tData := "built", time.Now()
	if *data != "" {
		dataWhat = "loaded"
		var err error
		net, db, err = dataset.Load(*data)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var cfg dataset.Config
		switch *city {
		case "b":
			cfg = dataset.BCity()
		case "t":
			cfg = dataset.TCity()
		case "default":
			cfg = dataset.DefaultConfig()
		default:
			log.Fatalf("unknown -city %q", *city)
		}
		log.Printf("building %s-city dataset...", *city)
		d, err := dataset.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		net, db = d.Net, d.DB
	}
	dataTook := time.Since(tData)

	log.Printf("training model over %d roads...", net.NumRoads())
	t0 := time.Now()
	store, err := core.NewStore(net, db, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("model v%d trained in %v (dataset %s in %v)", store.View().Version(), time.Since(t0).Round(time.Millisecond),
		dataWhat, dataTook.Round(time.Millisecond))
	store.OnSwap(func(old, v *core.View) {
		log.Printf("model v%d → v%d (%d observations, rebuilt in %v)",
			old.Version(), v.Version(), v.ObservationCount(), v.BuildDuration().Round(time.Millisecond))
	})
	if *rebuildTTL > 0 || *rebuildObs > 0 {
		store.Start(core.StoreConfig{
			RebuildEvery:            *rebuildTTL,
			RebuildMinObs:           *rebuildObs,
			IncrementalMaxDirtyFrac: *incFrac,
		})
		log.Printf("background rebuilds armed (every %v, min %d observations, incremental ≤ %.0f%% dirty)",
			*rebuildTTL, *rebuildObs, *incFrac*100)
	}

	srv, err := api.NewServerWith(store, api.Config{
		Metrics:              *metrics,
		MaxInflightEstimates: *maxEst,
		EstimateTimeout:      *estTimeout,
		Logger:               logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *maxEst > 0 {
		log.Printf("admission control: %d in-flight estimates, %v request deadline", *maxEst, *estTimeout)
	}
	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 60 * time.Second,
		// Slowloris hardening. ReadHeaderTimeout bounds how long a connection
		// may dribble its header bytes before we hang up: 5s is generous for
		// any real client yet frees a parked socket quickly. IdleTimeout caps
		// keep-alive parking between requests at 120s — long enough for
		// polling clients to reuse connections, short enough that abandoned
		// sockets don't accumulate for the kernel-default hours.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:    *debugAddr,
			Handler: api.DebugMux(),
			// No WriteTimeout: pprof profile/trace endpoints stream for their
			// ?seconds= duration. Header and idle timeouts match the main
			// server — the debug listener is private but not unreachable, and
			// a slowloris there starves the same file-descriptor budget.
			ReadTimeout:       10 * time.Second,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		go func() {
			log.Printf("debug endpoints on %s", *debugAddr)
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	// Serve until the listener fails or a shutdown signal arrives, then
	// drain: in-flight estimate rounds get -shutdown-timeout to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining for up to %v...", *shutdownTTL)
		drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTTL)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if debugSrv != nil {
			if err := debugSrv.Shutdown(drainCtx); err != nil {
				log.Printf("debug shutdown: %v", err)
			}
		}
		// After the HTTP drain, stop the rebuild loop; Close blocks until an
		// in-flight rebuild finishes its swap, so no build work is torn down
		// mid-write.
		store.Close()
	}
	log.Printf("final metrics:\n%s", obs.Default().Render())
}
