// Command simd is the sweep-as-a-service daemon: it serves the /v1
// job API over HTTP, deduplicates in-flight cells across jobs, runs
// cache misses as lockstep batch units of -batch lanes, and memoizes
// per-cell results in a content-addressed two-tier cache so a
// resubmitted matrix is answered from disk byte-for-byte instead of
// resimulated.
//
// Usage:
//
//	simd                                  # serve on :8377, memory-only cache
//	simd -addr :8080 -cache-dir /var/lib/simd
//	simd -queue 64 -jobs 4 -cell-workers 8
//	simd -batch 1                         # one lane per unit (the default lets the planner choose)
//	simd -platform-spec specs/smalldie.json  # extra -platforms names
//
// SIGINT/SIGTERM starts a graceful drain: new submissions are refused
// with 503, queued and running jobs finish (bounded by
// -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/simd"
	"repro/pkg/mobisim"
)

func main() {
	var (
		addr         = flag.String("addr", ":8377", "HTTP listen address")
		cacheDir     = flag.String("cache-dir", "", "on-disk result cache root (empty = memory-only)")
		queueCap     = flag.Int("queue", 16, "pending-job queue capacity; a full queue answers 429")
		jobWorkers   = flag.Int("jobs", 2, "jobs executed concurrently")
		cellWorkers  = flag.Int("cell-workers", 0, "per-job cell concurrency (0 = GOMAXPROCS)")
		batchWidth   = flag.Int("batch", 0, "lockstep lane width for cache-miss cells (0 = planner's choice: fill the job's workers, without -cell-workers its share of the CPUs among running jobs, then up to 8 lanes per unit); responses are byte-identical at every width")
		memCache     = flag.Int("mem-cache", simd.DefaultMemCacheCap, "in-memory cache tier capacity in cells")
		maxBody      = flag.Int64("max-body", 1<<20, "job submission body limit in bytes")
		platformSpec = flag.String("platform-spec", "", "comma-separated platform spec JSON files to register; their names become valid platform values in submitted jobs")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM before running jobs are killed")
	)
	flag.Parse()

	for _, path := range splitList(*platformSpec) {
		name, err := mobisim.RegisterPlatformFile(path)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "simd: registered platform %q from %s\n", name, path)
	}

	srv, err := simd.NewServer(simd.Config{
		QueueCap:     *queueCap,
		JobWorkers:   *jobWorkers,
		CellWorkers:  *cellWorkers,
		BatchWidth:   *batchWidth,
		CacheDir:     *cacheDir,
		MemCacheCap:  *memCache,
		MaxBodyBytes: *maxBody,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "simd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	if n := srv.Recovered(); n > 0 {
		fmt.Fprintf(os.Stderr, "simd: journal recovery: re-enqueued %d incomplete job(s)\n", n)
	}
	if srv.Degraded() {
		fmt.Fprintf(os.Stderr, "simd: DEGRADED (serving memory-only): %s\n",
			strings.Join(srv.DegradedReasons(), "; "))
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	cacheNote := "memory-only cache"
	if *cacheDir != "" {
		cacheNote = "cache at " + *cacheDir
	}
	widthNote := "planner-chosen lockstep batches"
	if *batchWidth != 0 {
		widthNote = fmt.Sprintf("lockstep batches of %d", *batchWidth)
	}
	fmt.Fprintf(os.Stderr, "simd: listening on %s (%s, queue %d, %d job workers, %s)\n",
		*addr, cacheNote, *queueCap, *jobWorkers, widthNote)

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process outright

	fmt.Fprintf(os.Stderr, "simd: draining (budget %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the job machinery first so /healthz flips to 503 and
	// in-flight jobs finish, then close HTTP listeners: SSE streams stay
	// attached until their jobs publish the terminal event.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "simd: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "simd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "simd: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simd:", err)
	os.Exit(1)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
