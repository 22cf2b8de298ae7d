// Command repro regenerates every table and figure of the paper's
// evaluation on the simulated platforms and renders them as text
// charts and tables.
//
// Usage:
//
//	repro -exp all          # everything
//	repro -exp fig1         # one artifact (fig1..fig9, table1, table2, sweep)
//	repro -exp table1 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/trace"
)

// csvDir, when non-empty, receives machine-readable CSVs of every
// rendered artifact next to the text charts.
var csvDir string

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig1..fig9, table1, table2, sweep, all")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.StringVar(&csvDir, "csv", "", "directory to also write artifact CSVs into")
	flag.Parse()
	if err := run(*exp, *seed); err != nil {
		fatal(err)
	}
}

// run renders experiment exp ("all" for every paper artifact) at seed.
func run(exp string, seed int64) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}

	paperIO, stickman, amazon := []string{"paper.io"}, []string{"stickman-hook"}, []string{"amazon"}
	threeDMark := []string{"3dmark"}
	artifacts := map[string]artifact{
		"fig1":   {apps: paperIO, render: func(st *experiments.Study) error { return tempFig(st, "fig1", "paper.io") }},
		"fig2":   {apps: paperIO, render: func(st *experiments.Study) error { return residencyFig(st, "fig2", "paper.io", platform.DomGPU) }},
		"fig3":   {apps: stickman, render: func(st *experiments.Study) error { return tempFig(st, "fig3", "stickman-hook") }},
		"fig4":   {apps: stickman, render: func(st *experiments.Study) error { return residencyFig(st, "fig4", "stickman-hook", platform.DomGPU) }},
		"fig5":   {apps: amazon, render: func(st *experiments.Study) error { return tempFig(st, "fig5", "amazon") }},
		"fig6":   {apps: amazon, render: func(st *experiments.Study) error { return residencyFig(st, "fig6", "amazon", platform.DomBig) }},
		"table1": {apps: experiments.NexusApps, render: table1},
		"fig7":   {render: func(*experiments.Study) error { return fig7() }},
		"fig8":   {benches: threeDMark, render: fig8},
		"fig9":   {benches: threeDMark, render: fig9},
		"table2": {benches: experiments.OdroidBenches, render: table2},
		"sweep":  {render: func(*experiments.Study) error { return sweep(seed) }},
	}
	order := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "fig7", "fig8", "fig9", "table2"}

	if exp != "all" {
		if _, ok := artifacts[exp]; !ok {
			return fmt.Errorf("unknown experiment %q (want fig1..fig9, table1, table2, sweep, all)", exp)
		}
		order = []string{exp}
	}
	// One study runs the union of the arms the requested artifacts read,
	// each distinct arm once; rendering only reads its engines.
	var apps, benches []string
	for _, name := range order {
		apps = append(apps, artifacts[name].apps...)
		benches = append(benches, artifacts[name].benches...)
	}
	st, err := experiments.NewStudy(seed, apps, benches)
	if err != nil {
		return err
	}
	for _, name := range order {
		if err := artifacts[name].render(st); err != nil {
			return err
		}
	}
	return nil
}

// artifact is one renderable experiment: the Nexus apps and Odroid
// benchmarks whose arms it reads, and how it renders them.
type artifact struct {
	apps, benches []string
	render        func(*experiments.Study) error
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}

// sweep runs the thermal-limit trade-off study: not a paper artifact,
// but the baseline for future thermal managers the paper's conclusion
// proposes.
func sweep(seed int64) error {
	limits := []float64{52, 55, 58, 62, 66, 70}
	points, err := experiments.LimitSweep(limits, 120, seed)
	if err != nil {
		return err
	}
	fmt.Println("sweep: thermal-limit trade-off, 3DMark+BML under the proposed governor")
	fmt.Printf("%10s %10s %10s %12s %14s\n", "limit (°C)", "GT1 FPS", "peak (°C)", "migrations", "BML iters")
	var csv strings.Builder
	csv.WriteString("limit_c,gt1_fps,peak_c,migrations,bml_iterations\n")
	for _, p := range points {
		fmt.Printf("%10.0f %10.1f %10.1f %12d %14d\n", p.LimitC, p.GT1FPS, p.PeakC, p.Migrations, p.BMLIterations)
		fmt.Fprintf(&csv, "%g,%g,%g,%d,%d\n", p.LimitC, p.GT1FPS, p.PeakC, p.Migrations, p.BMLIterations)
	}
	fmt.Println()
	return writeCSV("sweep.csv", csv.String())
}

// writeCSV stores content under csvDir when CSV export is enabled.
func writeCSV(name, content string) error {
	if csvDir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(csvDir, name), []byte(content), 0o644)
}

// residencyCSV renders a residency comparison as CSV rows.
func residencyCSV(res *experiments.Residency) string {
	var b strings.Builder
	b.WriteString("freq_hz,share_without,share_with\n")
	for _, f := range res.FreqsHz {
		fmt.Fprintf(&b, "%d,%g,%g\n", f, res.Without[f], res.With[f])
	}
	return b.String()
}

func tempFig(st *experiments.Study, id, app string) error {
	res, err := st.TempProfile(app)
	if err != nil {
		return err
	}
	chart, err := trace.LineChart(trace.LineChartConfig{
		Title:  fmt.Sprintf("%s: package temperature profile for %s (cf. paper Fig. %s)", id, app, id[3:]),
		YLabel: "°C",
	}, res.Without, res.With)
	if err != nil {
		return err
	}
	fmt.Println(chart)
	csv, err := trace.MultiCSV(1.0, res.Without, res.With)
	if err != nil {
		return err
	}
	return writeCSV(id+".csv", csv)
}

func residencyFig(st *experiments.Study, id, app string, dom platform.DomainID) error {
	res, err := st.Residency(app, dom)
	if err != nil {
		return err
	}
	chart, err := trace.BarChart(
		fmt.Sprintf("%s: %s frequency residency for %s (cf. paper Fig. %s)", id, dom, app, id[3:]),
		[]string{"without throttling", "with throttling"},
		res.BarGroups(),
	)
	if err != nil {
		return err
	}
	fmt.Println(chart)
	return writeCSV(id+".csv", residencyCSV(res))
}

func table1(st *experiments.Study) error {
	rows, err := st.Table1()
	if err != nil {
		return err
	}
	fmt.Println("table1: median frame rate with and without throttling (cf. paper Table I)")
	fmt.Printf("%-15s %12s %12s %12s\n", "App", "Without", "With", "Reduction")
	var csv strings.Builder
	csv.WriteString("app,fps_without,fps_with,reduction_pct\n")
	for _, r := range rows {
		fmt.Printf("%-15s %9.0f FPS %9.0f FPS %11.0f%%\n", r.App, r.WithoutFPS, r.WithFPS, r.ReductionPct)
		fmt.Fprintf(&csv, "%s,%g,%g,%g\n", r.App, r.WithoutFPS, r.WithFPS, r.ReductionPct)
	}
	fmt.Println()
	return writeCSV("table1.csv", csv.String())
}

func fig7() error {
	curves, crit, err := experiments.Fig7Experiment()
	if err != nil {
		return err
	}
	fmt.Printf("fig7: fixed-point functions (critical power = %.2f W; cf. paper Fig. 7)\n", crit)
	// One row per ψ sample, then the curve's fixed points (θ and the
	// temperature in °C) when it has them.
	var csv strings.Builder
	csv.WriteString("power_w,class,series,theta,value\n")
	for _, c := range curves {
		for i := range c.Theta {
			fmt.Fprintf(&csv, "%g,%s,psi,%g,%g\n", c.PowerW, c.Analysis.Class, c.Theta[i], c.Psi[i])
		}
		if a := c.Analysis; a.StableTheta != 0 {
			fmt.Fprintf(&csv, "%g,%s,stable_c,%g,%g\n", c.PowerW, a.Class, a.StableTheta, a.StableTempK-273.15)
			fmt.Fprintf(&csv, "%g,%s,unstable_c,%g,%g\n", c.PowerW, a.Class, a.UnstableTheta, a.UnstableTempK-273.15)
		}
	}
	for _, c := range curves {
		series := trace.NewSeries(fmt.Sprintf("Pd=%.1fW [%s]", c.PowerW, c.Analysis.Class), "ψ")
		for i := range c.Theta {
			series.MustAppend(c.Theta[i], c.Psi[i])
		}
		chart, err := trace.LineChart(trace.LineChartConfig{
			Title:  fmt.Sprintf("  ψ(θ) at Pd = %.2f W — %s", c.PowerW, c.Analysis.Class),
			Height: 12,
			YMin:   -5, YMax: 2.5,
		}, series)
		if err != nil {
			return err
		}
		fmt.Println(chart)
		if c.Analysis.StableTheta != 0 {
			fmt.Printf("  stable fixed point:   θ=%.3f  T=%.1f°C\n",
				c.Analysis.StableTheta, c.Analysis.StableTempK-273.15)
			fmt.Printf("  unstable fixed point: θ=%.3f  T=%.1f°C\n\n",
				c.Analysis.UnstableTheta, c.Analysis.UnstableTempK-273.15)
		} else {
			fmt.Println("  no fixed points (thermal runaway)")
			fmt.Println()
		}
	}
	return writeCSV("fig7.csv", csv.String())
}

func fig8(st *experiments.Study) error {
	res, err := st.Fig8()
	if err != nil {
		return err
	}
	chart, err := trace.LineChart(trace.LineChartConfig{
		Title: "fig8: maximum system temperature, 3DMark scenarios (cf. paper Fig. 8)",
	}, res.Alone, res.WithBML, res.Proposed)
	if err != nil {
		return err
	}
	fmt.Println(chart)
	fmt.Printf("  peak: alone %.1f°C, +BML %.1f°C, proposed %.1f°C\n\n",
		res.Alone.Max(), res.WithBML.Max(), res.Proposed.Max())
	csv, err := trace.MultiCSV(1.0, res.Alone, res.WithBML, res.Proposed)
	if err != nil {
		return err
	}
	return writeCSV("fig8.csv", csv)
}

func fig9(st *experiments.Study) error {
	results, err := st.Fig9()
	if err != nil {
		return err
	}
	var csv strings.Builder
	csv.WriteString("scenario,total_w,little,big,mem,gpu\n")
	for i, r := range results {
		chart, err := trace.ShareChart(
			fmt.Sprintf("fig9%c: power distribution, %s (total %.2f W; cf. paper Fig. 9)",
				'a'+i, r.Mode, r.TotalW),
			r.Slices(),
		)
		if err != nil {
			return err
		}
		fmt.Println(chart)
		fmt.Fprintf(&csv, "%q,%g", r.Mode, r.TotalW)
		for _, s := range r.Slices() {
			fmt.Fprintf(&csv, ",%g", s.Share)
		}
		csv.WriteByte('\n')
	}
	return writeCSV("fig9.csv", csv.String())
}

func table2(st *experiments.Study) error {
	rows, err := st.Table2()
	if err != nil {
		return err
	}
	fmt.Println("table2: application performance under the proposed control (cf. paper Table II)")
	fmt.Printf("%-12s %14s %14s %22s\n", "Test", "App. Alone", "App. + BML", "App.+BML w/ Proposed")
	var csv strings.Builder
	csv.WriteString("test,unit,alone,with_bml,proposed\n")
	for _, r := range rows {
		fmt.Printf("%-12s %10.1f %s %10.1f %s %18.1f %s\n",
			r.Test, r.Alone, r.Unit, r.WithBML, r.Unit, r.Proposed, r.Unit)
		fmt.Fprintf(&csv, "%s,%s,%g,%g,%g\n", r.Test, r.Unit, r.Alone, r.WithBML, r.Proposed)
	}
	fmt.Println()
	return writeCSV("table2.csv", csv.String())
}
