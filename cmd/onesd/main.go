// Command onesd is the ONES scheduling daemon: an HTTP control plane
// over the public ones SDK that multiplexes many client sessions in one
// process, shares one singleflight result cache across all of them, and
// (with -cache-dir) persists every completed simulation cell to disk so
// restarts serve warm work without recomputation.
//
//	onesd -addr :8080 -cache-dir /var/cache/onesd
//
//	curl -s localhost:8080/v1/schedulers
//	curl -s -X POST localhost:8080/v1/runs -d '{"scheduler":"ones","jobs":60,"quick":true}'
//	curl -s localhost:8080/v1/runs/run-000001
//	curl -sN localhost:8080/v1/runs/run-000001/stream
//	curl -s -X DELETE localhost:8080/v1/runs/run-000001
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/runs/run-000001/trace
//
// Every daemon serves Prometheus metrics on GET /metrics (engine, cache,
// evolution and HTTP series — see DESIGN.md "Observability"), per-run
// span traces on GET /v1/runs/{id}/trace, liveness on GET /healthz and
// readiness on GET /readyz (503 once shutdown begins). -pprof
// additionally mounts the Go profiler under /debug/pprof/.
//
// Production hardening (all opt-in, see DESIGN.md "Admission & bounded
// state"): -max-runs/-run-ttl bound the run table, -cache-max-entries/
// -cache-ttl/-cache-max-bytes bound the result cache (swept every
// -sweep-interval even when idle), -auth-token requires a bearer token
// on /v1 (probes and /metrics stay open), -rate-limit/-rate-burst add
// per-endpoint token buckets (429 + Retry-After), and -breaker-backlog/
// -breaker-cooldown shed run creation with 503s while compute is backed
// up.
//
// See cmd/onesd/README.md for the full endpoint reference and
// DESIGN.md ("Network service") for cache layout and cancellation
// semantics. SIGINT/SIGTERM shut the daemon down gracefully: in-flight
// runs are cancelled (aborting mid-cell within sub-second latency),
// streams receive their terminal event, and the listener drains.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/pkg/ones"
	"repro/pkg/ones/serve"
)

// newHTTPServer builds the daemon's HTTP server. The header and idle
// timeouts reap stalled connections: a client that never finishes its
// request headers would otherwise hold a goroutine and a file descriptor
// forever, unseen by bearer auth and the rate limiter, which only run
// once the headers are parsed. WriteTimeout stays zero: an NDJSON run
// stream is open as long as its run, and a write deadline would cut it.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cache-dir", "", "persist completed simulation cells here (empty: shared in-memory cache only)")
		timeout   = flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight runs on shutdown")
		withPprof = flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")

		maxRuns    = flag.Int("max-runs", 0, "cap the run table; oldest finished runs are evicted beyond it (0: unbounded)")
		runTTL     = flag.Duration("run-ttl", 0, "evict finished runs this long after completion (0: keep forever)")
		cacheMax   = flag.Int("cache-max-entries", 0, "cap the in-memory result memo, LRU-evicting completed entries (0: unbounded)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "evict completed memo entries this long after their last store or hit (0: never)")
		cacheBytes = flag.Int64("cache-max-bytes", 0, "cap the -cache-dir size in bytes, removing oldest files (0: unbounded)")
		sweepEvery = flag.Duration("sweep-interval", time.Minute, "how often to sweep cache limits when idle")

		authToken   = flag.String("auth-token", "", "require this bearer token on /v1 endpoints (empty: no auth)")
		rateLimit   = flag.Float64("rate-limit", 0, "per-endpoint requests per second; excess answered 429 (0: unlimited)")
		rateBurst   = flag.Int("rate-burst", 0, "token-bucket burst per endpoint (0: one second's worth)")
		brkBacklog  = flag.Int("breaker-backlog", 0, "shed run creation with 503s once this many runs execute concurrently (0: disabled)")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "how long the breaker stays open before probing again")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "onesd: ", log.LstdFlags)

	cache, err := ones.NewCache(*cacheDir, logger.Printf)
	if err != nil {
		logger.Fatal(err)
	}
	if *cacheDir != "" {
		logger.Printf("persisting cells to %s", *cacheDir)
	}
	cache.SetLimits(ones.CacheLimits{
		MaxEntries:   *cacheMax,
		TTL:          *cacheTTL,
		MaxDiskBytes: *cacheBytes,
	})

	metrics := ones.NewMetrics()
	srv := serve.New(cache, logger, serve.WithMetrics(metrics), serve.WithConfig(serve.Config{
		MaxRuns:         *maxRuns,
		RunTTL:          *runTTL,
		AuthToken:       *authToken,
		RatePerSec:      *rateLimit,
		RateBurst:       *rateBurst,
		BreakerBacklog:  *brkBacklog,
		BreakerCooldown: *brkCooldown,
	}))
	handler := srv.Handler()
	if *withPprof {
		// Mount the profiler on an outer mux so the API handler stays
		// unaware of it; /debug/pprof/ is index + named profiles.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.HandleFunc("GET /debug/pprof/", pprof.Index)
		outer.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = outer
		logger.Printf("profiling enabled under /debug/pprof/")
	}
	httpSrv := newHTTPServer(*addr, handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Sweep the cache limits periodically so TTL'd entries expire and the
	// disk directory shrinks even while the daemon is idle (inserts sweep
	// inline; this ticker covers the no-traffic case). Stops on shutdown.
	if *sweepEvery > 0 {
		go func() {
			tick := time.NewTicker(*sweepEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					cache.Sweep()
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down (signal)")
	case err := <-errc:
		logger.Fatalf("listen: %v", err)
	}

	// Cancel every in-flight run first — mid-cell cancellation makes
	// this sub-second — so streaming handlers reach their terminal event
	// and the HTTP drain below completes promptly.
	shutCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Printf("run drain: %v", err)
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Printf("http drain: %v", err)
	}
	fmt.Fprintln(os.Stderr, "onesd: bye")
}
