// Command sweep expands a scenario matrix — from a declarative JSON
// spec file or from flags — and runs it on the parallel worker pool,
// emitting aggregated summaries (and optionally raw per-scenario
// results) as JSON or CSV. Scenario runs are constant-memory: metrics
// stream out of accumulators instead of materialized traces. Limit-aware
// cells that differ only in their limit simulate their shared warm-up
// once and fork from an engine snapshot; output bytes equal those of
// every cell run alone.
//
// Usage:
//
//	sweep -matrix matrix.json                       # declarative sweep spec
//	sweep -limits 52,58,64,70                       # 3DMark+BML limit sweep
//	sweep -limits 55,65 -replicates 4 -workers 8    # 4 seed replicates per cell
//	sweep -governors appaware,ipa -format csv       # arm comparison as CSV
//	sweep -platforms nexus6p -workloads paper.io -governors stepwise,none
//	sweep -platform-spec testdata/platforms/smalldie.json -platforms smalldie -workloads gen-bursty -governors none
//	sweep -batch 1                                  # one unit per cold cell or warm prefix group
//	sweep -cache-dir ~/.cache/mobisim               # memoize cells in the daemon's disk cache
//	sweep -daemon http://localhost:8377             # submit to a running simd daemon
//	sweep -cpuprofile cpu.out -memprofile mem.out   # profile the sweep hot path
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/simd"
	"repro/pkg/mobisim"
	"repro/pkg/simclient"
)

func main() {
	var (
		matrixPath   = flag.String("matrix", "", "JSON matrix spec file (overrides the axis flags)")
		platformSpec = flag.String("platform-spec", "", "comma-separated platform spec JSON files to register; their names become valid -platforms values")
		platforms    = flag.String("platforms", mobisim.PlatformOdroidXU3, "comma-separated platforms (odroid-xu3, nexus6p, or spec-registered names)")
		workloads    = flag.String("workloads", "3dmark+bml", "comma-separated workload mixes (3dmark, nenamark, paper.io, gen-bursty, ...; +bml adds the background task)")
		governors    = flag.String("governors", mobisim.GovAppAware, "comma-separated governor arms (appaware, ipa, stepwise, none)")
		limits       = flag.String("limits", "52,58,64,70", "comma-separated appaware thermal limits in °C (0 keeps the platform default; collapsed to one cell for limit-agnostic arms)")
		replicates   = flag.Int("replicates", 1, "seed replicates per parameter cell")
		duration     = flag.Float64("duration", 120, "simulated seconds per scenario")
		seed         = flag.Int64("seed", 1, "base seed for per-replicate seed derivation")
		workers      = flag.Int("workers", 0, "pool workers (0 = GOMAXPROCS)")
		batch        = flag.Int("batch", 0, "lockstep batch width: scenarios stepped together through the fused SoA kernel (0 = planner's choice: fill the workers, then up to 8 lanes per unit; 1 = one unit per cold cell or warm prefix group); output bytes are identical at every width")
		cacheDir     = flag.String("cache-dir", "", "content-addressed result cache root shared with the simd daemon; cached cells are served from disk instead of resimulated, and misses run on the daemon's executor at -batch lanes (output bytes are identical either way)")
		daemonURL    = flag.String("daemon", "", "base URL of a running simd daemon; the sweep is submitted as a job and the daemon's result bytes are emitted verbatim (json only, retried with backoff across daemon restarts)")
		format       = flag.String("format", "json", "output format: json or csv")
		raw          = flag.Bool("raw", false, "include raw per-scenario results (json only)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile (post-sweep) to this file")
	)
	flag.Parse()

	// Register user platform specs before any matrix validation, so
	// spec files and flags may reference them by name.
	for _, path := range splitList(*platformSpec) {
		name, err := mobisim.RegisterPlatformFile(path)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: registered platform %q from %s\n", name, path)
	}

	// Pick the renderer up front so a typo'd -format fails before hours
	// of simulation, and so format validation lives in one place.
	render, err := pickRenderer(*format, os.Stdout)
	if err != nil {
		fatal(err)
	}

	if *daemonURL != "" {
		if *cacheDir != "" || *batch != 0 {
			fatal(fmt.Errorf("-daemon is incompatible with -cache-dir and -batch (the daemon schedules cells itself)"))
		}
		if *format != "json" {
			fatal(fmt.Errorf("-daemon emits the daemon's result bytes verbatim, which are json; use -format json"))
		}
	}

	var matrix mobisim.Matrix
	if *matrixPath != "" {
		m, err := mobisim.LoadMatrix(*matrixPath)
		if err != nil {
			fatal(err)
		}
		matrix = m
	} else {
		limitsC, err := parseFloats(*limits)
		if err != nil {
			fatal(fmt.Errorf("bad -limits: %w", err))
		}
		matrix = mobisim.Matrix{
			Platforms:  splitList(*platforms),
			Workloads:  splitList(*workloads),
			Governors:  splitList(*governors),
			LimitsC:    limitsC,
			Replicates: *replicates,
			DurationS:  *duration,
			BaseSeed:   *seed,
		}
		matrix.Normalize()
		if err := matrix.Validate(); err != nil {
			fatal(err)
		}
	}

	// Ctrl-C cancels the sweep: queued scenarios never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Daemon mode: submit the matrix as one job and emit the daemon's
	// result bytes verbatim (they are the same bytes a local run would
	// produce). The client retries with backoff and resubmits
	// idempotently across daemon restarts.
	if *daemonURL != "" {
		envelope, err := daemonEnvelope(matrix, *raw)
		if err != nil {
			fatal(err)
		}
		c := simclient.New(*daemonURL)
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
		}
		start := time.Now()
		body, st, err := c.Run(ctx, envelope)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: job %s done in %.1fs via %s\n",
			st.ID, time.Since(start).Seconds(), *daemonURL)
		if _, err := os.Stdout.Write(body); err != nil {
			fatal(err)
		}
		return
	}

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	size := matrix.ExpandedSize()
	if nWorkers > size {
		nWorkers = size // the pool clamps too; keep the banner honest
	}
	mode := ", planner-chosen lockstep batches"
	if *batch != 0 {
		mode = fmt.Sprintf(", lockstep batches of %d", *batch)
	}
	// The disk cache degrades instead of gating the sweep: an unusable
	// -cache-dir warns and runs uncached rather than aborting.
	cache := openCacheOrWarn(*cacheDir, os.Stderr)
	if cache != nil {
		mode += ", result cache at " + *cacheDir
	}
	fmt.Fprintf(os.Stderr, "sweep: %d scenarios × %.0fs simulated on %d workers%s\n",
		size, matrix.DurationS, nWorkers, mode)

	// Profiling hooks: hot-path regressions in the sweep executor are
	// diagnosed with `sweep -cpuprofile cpu.out ...` + `go tool pprof`
	// instead of editing code. The profile is stopped and flushed
	// before any fatal exit — fatal's os.Exit skips defers, and a
	// failing run is exactly the one worth profiling.
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuFile = f
	}
	stopCPUProfile := func() {
		if cpuFile == nil {
			return
		}
		pprof.StopCPUProfile()
		cpuFile.Close()
		cpuFile = nil
	}

	start := time.Now()
	cfg := mobisim.SweepConfig{Workers: nWorkers, IncludeRaw: *raw, BatchWidth: *batch}
	var out *mobisim.SweepOutput
	if cache != nil {
		var stats simd.RunStats
		out, stats, err = simd.RunSweepCached(ctx, matrix, cfg, cache)
		stopCPUProfile()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: done in %.1fs (%d/%d cells from cache, %d computed)\n",
			time.Since(start).Seconds(), stats.CacheHits(), stats.Total, stats.Computed())
	} else {
		out, err = mobisim.RunSweep(ctx, matrix, cfg)
		stopCPUProfile()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: done in %.1fs\n", time.Since(start).Seconds())
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // surface live retention, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if err := render(out); err != nil {
		fatal(err)
	}
}

// openCacheOrWarn opens the shared disk cache, degrading to uncached
// execution instead of aborting when the directory is unusable: a bad
// cache only costs future hits, never the sweep. Empty dir = no cache
// requested, no warning.
func openCacheOrWarn(dir string, warn io.Writer) *simd.Cache {
	if dir == "" {
		return nil
	}
	cache, err := simd.NewCache(dir, 0)
	if err != nil {
		fmt.Fprintf(warn, "sweep: cache disabled, running uncached: %v\n", err)
		return nil
	}
	return cache
}

// daemonEnvelope renders the -daemon job submission body. The encoding
// is deterministic, so resubmitting the same matrix reuses the same
// idempotency key.
func daemonEnvelope(matrix mobisim.Matrix, includeRaw bool) ([]byte, error) {
	return json.Marshal(struct {
		Matrix     mobisim.Matrix `json:"matrix"`
		IncludeRaw bool           `json:"include_raw,omitempty"`
	}{matrix, includeRaw})
}

// pickRenderer resolves -format to an encoder writing to w, failing
// on unknown formats so a typo never costs a completed sweep.
func pickRenderer(format string, w io.Writer) (func(out *mobisim.SweepOutput) error, error) {
	switch format {
	case "json":
		return func(out *mobisim.SweepOutput) error { return out.EncodeJSON(w) }, nil
	case "csv":
		return func(out *mobisim.SweepOutput) error { return out.EncodeCSV(w) }, nil
	default:
		return nil, fmt.Errorf("unknown format %q (want json or csv)", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
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

func parseFloats(s string) ([]float64, error) {
	parts := splitList(s)
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
