// Command explore runs a seeded design-space search over scenario and
// platform parameters: it loads a declarative optimize spec (objective,
// constraints, mutation axes), hill-climbs through the induced grid with
// each generation (0 and 1 together) run as one lockstep batch, and
// emits the full search trace as JSON or CSV. The trajectory is a pure
// function of the spec: identical seeds produce byte-identical traces
// regardless of -workers, -batch, or cache state.
//
// Usage:
//
//	explore -spec search.json                        # run the committed spec
//	explore -spec search.json -seed 9                # same spec, different trajectory
//	explore -spec search.json -generations 64        # deeper search
//	explore -spec search.json -format csv            # flat per-candidate rows
//	explore -spec search.json -batch 1               # one lane per unit (0, the default, lets the planner choose)
//	explore -spec search.json -cache-dir ~/.cache/mobisim  # share the simd result cache
//	explore -spec search.json -daemon http://localhost:8377  # evaluate cells on a simd daemon
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/simd"
	"repro/pkg/mobisim"
	"repro/pkg/simclient"
)

func main() {
	var (
		specPath     = flag.String("spec", "", "optimize spec JSON file (required)")
		platformSpec = flag.String("platform-spec", "", "platform spec JSON file to register; its name becomes a valid base-scenario platform")
		seed         = flag.Int64("seed", 0, "override the spec's search seed")
		generations  = flag.Int("generations", 0, "override the spec's generation budget")
		neighbors    = flag.Int("neighbors", 0, "override the spec's neighbors per generation")
		patience     = flag.Int("patience", 0, "override the spec's convergence patience")
		workers      = flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS; never changes output bytes)")
		batch        = flag.Int("batch", 0, "lockstep batch width for candidate evaluation (0 = planner's choice: fill the workers, then up to 8 lanes per unit; never changes output bytes)")
		cacheDir     = flag.String("cache-dir", "", "content-addressed result cache root shared with the simd daemon; cached cells skip simulation (trajectory bytes are identical either way)")
		daemonURL    = flag.String("daemon", "", "base URL of a running simd daemon; cache-miss cells are evaluated remotely per generation (generations 0 and 1 as one job), retried with backoff across daemon restarts (trajectory bytes are identical either way)")
		format       = flag.String("format", "json", "output format: json or csv")
	)
	flag.Parse()

	if *specPath == "" {
		fatal(fmt.Errorf("-spec is required"))
	}
	render, err := pickRenderer(*format, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *platformSpec != "" {
		name, err := mobisim.RegisterPlatformFile(*platformSpec)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "explore: registered platform %q from %s\n", name, *platformSpec)
	}

	spec, err := mobisim.LoadOptimize(*specPath)
	if err != nil {
		fatal(err)
	}
	// Flag overrides replace spec knobs only when set on the command
	// line, so a spec's own zero-value defaults stay intact.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			spec.Seed = *seed
		case "generations":
			spec.MaxGenerations = *generations
		case "neighbors":
			spec.Neighbors = *neighbors
		case "patience":
			spec.Patience = *patience
		}
	})
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	cfg := mobisim.OptimizeConfig{
		Workers:    *workers,
		BatchWidth: *batch,
	}
	if *cacheDir != "" {
		cache, err := simd.NewCache(*cacheDir, 0)
		if err != nil {
			fatal(err)
		}
		cfg.Cache = cellCache{cache}
	}
	if *daemonURL != "" {
		c := simclient.New(*daemonURL)
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "explore: "+format+"\n", args...)
		}
		cfg.Runner = &simclient.Runner{Client: c}
	}

	// Ctrl-C cancels the search: in-flight generations stop cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "explore: %s %s over %d mutation axes, seed %d\n",
		spec.Objective.Goal, spec.Objective.Metric, len(spec.Mutations), spec.Seed)

	start := time.Now()
	res, err := mobisim.Optimize(ctx, spec, cfg)
	if err != nil {
		fatal(err)
	}
	summary := fmt.Sprintf("explore: %d generations, %d candidates, %d cells simulated",
		len(res.Generations), res.Evaluated, res.Cells)
	if res.CacheHits > 0 {
		summary += fmt.Sprintf(", %d from cache", res.CacheHits)
	}
	if res.Best != nil {
		summary += fmt.Sprintf("; best %s=%g", spec.Objective.Metric, res.Best.Objective)
	} else {
		summary += "; no feasible candidate"
	}
	fmt.Fprintf(os.Stderr, "%s (%s, %.1fs)\n", summary, res.StopReason, time.Since(start).Seconds())

	if err := render(res); err != nil {
		fatal(err)
	}
}

// cellCache adapts the simd daemon's two-tier disk cache to the
// optimizer's CellCache interface.
type cellCache struct{ c *simd.Cache }

func (a cellCache) Get(key uint64) (map[string]float64, bool) {
	m, tier := a.c.Get(key)
	return m, tier != simd.TierMiss
}

func (a cellCache) Put(key uint64, metrics map[string]float64) {
	// A failed write only costs a future cache hit; the search result
	// is already in memory.
	_ = a.c.Put(key, metrics)
}

func pickRenderer(format string, w io.Writer) (func(res *mobisim.SearchResult) error, error) {
	switch format {
	case "json":
		return func(res *mobisim.SearchResult) error { return res.EncodeJSON(w) }, nil
	case "csv":
		return func(res *mobisim.SearchResult) error { return res.EncodeCSV(w) }, nil
	default:
		return nil, fmt.Errorf("unknown format %q (want json or csv)", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explore:", err)
	os.Exit(1)
}
