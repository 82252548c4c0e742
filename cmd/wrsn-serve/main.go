// Command wrsn-serve runs the planning engine as an HTTP/JSON service:
// POST /v1/plan plans charging tours for an instance (byte-identical to
// `wrsn-plan -json`), POST /v1/simulate runs the evaluation protocol,
// and /livez, /readyz, /metrics and /debug/pprof expose operational
// state. SIGTERM or SIGINT triggers a graceful drain: in-flight
// requests finish, new ones get 503, then the listener closes.
//
// Usage:
//
//	wrsn-serve -addr :8080 -workers 4 -queue 64
//	wrsn-plan -n 400 -dump-instance inst.json
//	curl -s -d @inst.json localhost:8080/v1/plan
//
// With -shards the process becomes a router: /v1/plan requests are
// consistent-hashed across the named backends with retries, per-backend
// circuit breakers, optional hedging, and fallback to local planning
// (X-Plan-Degraded: local) when no backend can answer:
//
//	wrsn-serve -addr :8080 -shards host1:8081,host2:8081
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent planning workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth; requests beyond workers+queue get 429 (negative = no queue)")
		cacheCap     = flag.Int("cache-cap", 0, "plan cache capacity in entries (0 = default, negative = disabled)")
		defTimeout   = flag.Duration("default-timeout", 30*time.Second, "planning deadline for requests that name none")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "upper bound on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful drain waits for in-flight requests")
		shards       = flag.String("shards", "", "comma-separated backend addresses; route /v1/plan across them with consistent hashing, retries and circuit breakers")
		hedge        = flag.Float64("hedge-quantile", 0, "router: launch a hedged second request after this latency quantile (0 = off, e.g. 0.99)")
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheCapacity:  *cacheCap,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
		HedgeQuantile:  *hedge,
	}
	if *shards != "" {
		for _, sh := range strings.Split(*shards, ",") {
			if sh = strings.TrimSpace(sh); sh != "" {
				cfg.Shards = append(cfg.Shards, sh)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := serve.New(cfg)
	go func() {
		for s.Addr() == "" {
			time.Sleep(time.Millisecond)
			if ctx.Err() != nil {
				return
			}
		}
		if len(cfg.Shards) > 0 {
			log.Printf("wrsn-serve: routing on %s across %d shards", s.Addr(), len(cfg.Shards))
		} else {
			w, q := s.PoolSize()
			log.Printf("wrsn-serve: listening on %s (workers=%d queue=%d)", s.Addr(), w, q)
		}
	}()
	if err := s.ListenAndServe(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-serve:", err)
		os.Exit(1)
	}
	log.Print("wrsn-serve: drained cleanly")
}
