package experiments

import (
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/stability"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/mobisim"
)

// These tests lock in the paper's qualitative reproduction targets
// (PAPER.md): they run the actual experiment scenarios and assert the
// paper's orderings and rough magnitudes, so any model change that
// breaks an artifact fails loudly.

const seed = 1

// fullStudy runs every arm `repro -exp all` reads once per test binary;
// the shape tests and the digest all project from it.
var fullStudy struct {
	once sync.Once
	st   *Study
	err  error
}

func paperStudy(t *testing.T) *Study {
	t.Helper()
	fullStudy.once.Do(func() {
		fullStudy.st, fullStudy.err = NewStudy(seed, NexusApps, OdroidBenches)
	})
	if fullStudy.err != nil {
		t.Fatal(fullStudy.err)
	}
	return fullStudy.st
}

func TestNexusAppLookup(t *testing.T) {
	spec := func(name string) mobisim.Scenario {
		return mobisim.Scenario{
			Platform:  mobisim.PlatformNexus6P,
			Workload:  name,
			Governor:  mobisim.GovNone,
			DurationS: 1,
			Seed:      seed,
		}
	}
	for _, name := range NexusApps {
		if err := spec(name).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := spec("flappy-bird").Validate(); err == nil {
		t.Error("unknown app should fail")
	}
}

func TestTable1ReproducesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper study")
	}
	rows, err := paperStudy(t).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(rows))
	}
	byApp := make(map[string]Table1Row, len(rows))
	for _, r := range rows {
		byApp[r.App] = r
		if r.WithFPS > r.WithoutFPS {
			t.Errorf("%s: throttled FPS %v exceeds unthrottled %v", r.App, r.WithFPS, r.WithoutFPS)
		}
	}
	// Paper Table I: games and Facebook lose ~30%+, Amazon ~20%,
	// Hangouts ~10%.
	for _, app := range []string{"paper.io", "stickman-hook", "facebook"} {
		if red := byApp[app].ReductionPct; red < 20 || red > 45 {
			t.Errorf("%s reduction = %.0f%%, want ~30%% (paper: 31-34%%)", app, red)
		}
	}
	if red := byApp["amazon"].ReductionPct; red < 10 || red > 35 {
		t.Errorf("amazon reduction = %.0f%%, want ~20%%", red)
	}
	if red := byApp["hangouts"].ReductionPct; red < 3 || red > 20 {
		t.Errorf("hangouts reduction = %.0f%%, want ~10%%", red)
	}
	// Hangouts must be the mildest, as in the paper.
	for _, r := range rows {
		if r.App != "hangouts" && r.ReductionPct < byApp["hangouts"].ReductionPct {
			t.Errorf("%s reduction %.0f%% below hangouts' %.0f%%; ordering broken",
				r.App, r.ReductionPct, byApp["hangouts"].ReductionPct)
		}
	}
}

func TestResidencyCollapseUnderThrottling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper study")
	}
	res, err := paperStudy(t).Residency("paper.io", platform.DomGPU)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 2: the top two OPPs carry substantial residency
	// without throttling and collapse with it; 305/390 rise sharply.
	topFree := res.Without[510e6] + res.Without[600e6]
	topThrot := res.With[510e6] + res.With[600e6]
	if topFree < 0.4 {
		t.Errorf("free 510+600 share = %.2f, want > 0.4", topFree)
	}
	if topThrot > topFree/2 {
		t.Errorf("throttled 510+600 share = %.2f, want < half of free %.2f", topThrot, topFree)
	}
	midFree := res.Without[305e6] + res.Without[390e6]
	midThrot := res.With[305e6] + res.With[390e6]
	if midThrot < midFree+0.2 {
		t.Errorf("mid-OPP share should rise sharply: %.2f -> %.2f", midFree, midThrot)
	}
	// Chart conversion keeps bins in ladder order.
	groups := res.BarGroups()
	if len(groups) != 6 || groups[0].Label != "180MHz" || groups[5].Label != "600MHz" {
		t.Errorf("bar groups malformed: %+v", groups)
	}
}

func TestTempProfileShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper study")
	}
	res, err := paperStudy(t).TempProfile("paper.io")
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 1: the unthrottled trace runs hotter.
	if res.Without.Max() <= res.With.Max() {
		t.Errorf("unthrottled peak %.1f°C not above throttled %.1f°C",
			res.Without.Max(), res.With.Max())
	}
	// Both traces span the full measurement window.
	for _, s := range []*trace.Series{res.Without, res.With} {
		if last, _ := s.Last(); last.TimeS < NexusDurationS-1 {
			t.Errorf("%s trace ends at %.1fs, want ~%.0fs", s.Name, last.TimeS, float64(NexusDurationS))
		}
	}
}

func TestFig7Structure(t *testing.T) {
	curves, crit, err := Fig7Experiment()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: critical power ≈ 5.5 W for the Odroid parameters.
	if math.Abs(crit-5.5) > 0.15 {
		t.Errorf("critical power = %.2f W, want ≈5.5", crit)
	}
	if len(curves) != 3 {
		t.Fatalf("want 3 curves, got %d", len(curves))
	}
	wantClass := []stability.Class{stability.Stable, stability.CriticallyStable, stability.Runaway}
	for i, c := range curves {
		if c.Analysis.Class != wantClass[i] {
			t.Errorf("curve %d (%.1f W): class %v, want %v", i, c.PowerW, c.Analysis.Class, wantClass[i])
		}
		if len(c.Theta) != len(c.Psi) || len(c.Theta) == 0 {
			t.Errorf("curve %d has malformed samples", i)
		}
	}
	// The 2 W curve must have two distinct roots with the stable root at
	// larger θ (lower temperature).
	an := curves[0].Analysis
	if an.StableTheta <= an.UnstableTheta {
		t.Errorf("stable θ %.3f should exceed unstable θ %.3f", an.StableTheta, an.UnstableTheta)
	}
}

func TestModesAndStrings(t *testing.T) {
	if len(Modes()) != 3 {
		t.Error("want 3 modes")
	}
	if Alone.String() == "" || WithBML.String() == "" || Proposed.String() == "" {
		t.Error("modes need names")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode should include number")
	}
}

func TestRunOdroidRejectsUnknownBench(t *testing.T) {
	_, err := NewStudy(seed, nil, []string{"3dmark", "quake"})
	if err == nil || err.Error() != `experiments: unknown benchmark "quake"` {
		t.Errorf("unknown benchmark: err = %v", err)
	}
}

func TestFig8Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper study")
	}
	res, err := paperStudy(t).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	alone, bml, prop := res.Alone.Max(), res.WithBML.Max(), res.Proposed.Max()
	// Paper Figure 8: +BML runs hottest; the proposed controller keeps
	// the system close to the alone trace.
	if bml <= alone+2 {
		t.Errorf("+BML peak %.1f°C should clearly exceed alone %.1f°C", bml, alone)
	}
	if prop >= bml {
		t.Errorf("proposed peak %.1f°C should stay below +BML %.1f°C", prop, bml)
	}
	if prop > alone+6 {
		t.Errorf("proposed peak %.1f°C strays too far above alone %.1f°C", prop, alone)
	}
}

func TestFig9Shares(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper study")
	}
	res, err := paperStudy(t).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	byMode := make(map[Mode]Fig9Result, 3)
	for _, r := range res {
		byMode[r.Mode] = r
		sum := 0.0
		for _, s := range r.Shares {
			sum += s
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s shares sum to %.3f, want 1", r.Mode, sum)
		}
		if len(r.Slices()) != 4 {
			t.Errorf("%s should render 4 slices", r.Mode)
		}
	}
	// Paper Figure 9a: the GPU dominates when 3DMark runs alone.
	a := byMode[Alone]
	if a.Shares[power.RailGPU] < a.Shares[power.RailBig] {
		t.Error("alone: GPU share should exceed big share")
	}
	// Figure 9b: BML flips dominance to the big cluster and raises total
	// power toward the paper's 3.65 W.
	bml := byMode[WithBML]
	if bml.Shares[power.RailBig] < bml.Shares[power.RailGPU] {
		t.Error("+BML: big share should exceed GPU share")
	}
	if bml.TotalW < 2.8 || bml.TotalW > 4.5 {
		t.Errorf("+BML total = %.2f W, want ~3.65", bml.TotalW)
	}
	// Figure 9c: migration moves power from big to little.
	prop := byMode[Proposed]
	if prop.Shares[power.RailBig] >= bml.Shares[power.RailBig] {
		t.Error("proposed: big share should drop versus +BML")
	}
	if prop.Shares[power.RailLittle] <= bml.Shares[power.RailLittle] {
		t.Error("proposed: little share should rise versus +BML")
	}
}

func TestTable2ReproducesPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper study")
	}
	rows, err := paperStudy(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// BML degrades the benchmark; the proposed control recovers it.
		if r.WithBML >= r.Alone {
			t.Errorf("%s: +BML score %.1f not below alone %.1f", r.Test, r.WithBML, r.Alone)
		}
		if r.Proposed < r.WithBML {
			t.Errorf("%s: proposed %.1f below +BML %.1f", r.Test, r.Proposed, r.WithBML)
		}
		// Proposed recovers to within 10% of alone (paper: 93 vs 97 GT1,
		// identical for GT2 and Nenamark).
		if r.Proposed < 0.9*r.Alone {
			t.Errorf("%s: proposed %.1f not within 10%% of alone %.1f", r.Test, r.Proposed, r.Alone)
		}
	}
	// Nenamark scores land on the paper's scale.
	nn := rows[2]
	if nn.Alone < 3 || nn.Alone > 4.5 {
		t.Errorf("Nenamark alone = %.1f levels, want ≈3.5", nn.Alone)
	}
}

func TestRunNexusAppDeterministic(t *testing.T) {
	run := func() float64 {
		st, err := NewStudy(7, []string{"hangouts"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		arms, err := st.arms(nexusSpecs("hangouts", 7))
		if err != nil {
			t.Fatal(err)
		}
		if arms[0].Spec().Governor != mobisim.GovNone || arms[1].Spec().Governor != mobisim.GovStepwise {
			t.Fatalf("arms run %s and %s, want none and stepwise", arms[0].Spec().Governor, arms[1].Spec().Governor)
		}
		return arms[1].Foreground().(*workload.FrameApp).MedianFPS()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed runs differ: %v vs %v", a, b)
	}
}

func TestOdroidRunExposesBenchAndGovernor(t *testing.T) {
	run := func(mode Mode) *mobisim.Engine {
		specs, err := odroidSpecs("3dmark", seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := specs[mode]
		spec.DurationS = 5
		eng, err := mobisim.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	proposed := run(Proposed)
	if proposed.Spec().Workload != "3dmark+bml" || proposed.Spec().Governor != mobisim.GovAppAware {
		t.Errorf("proposed arm is %s under %s, want 3dmark+bml under appaware", proposed.Spec().Workload, proposed.Spec().Governor)
	}
	if _, ok := proposed.Foreground().(*workload.ThreeDMark); !ok {
		t.Error("bench should be a ThreeDMark")
	}
	if proposed.BackgroundBML() == nil {
		t.Error("proposed mode should include BML")
	}
	if proposed.AppAware() == nil {
		t.Error("proposed mode should expose the appaware governor")
	}
	alone := run(Alone)
	if alone.Spec().Workload != "3dmark" || alone.Spec().Governor != mobisim.GovIPA {
		t.Errorf("alone arm is %s under %s, want 3dmark under ipa", alone.Spec().Workload, alone.Spec().Governor)
	}
	if alone.BackgroundBML() != nil || alone.AppAware() != nil {
		t.Error("alone mode should have neither BML nor the governor")
	}
}

// TestStudyRunsEachArmOnce pins the Study's contract: the union of the
// paper's arms is 16 distinct engines, a study of fewer arms projects
// the same numbers bit for bit, and projecting an arm the study did not
// run is an error.
func TestStudyRunsEachArmOnce(t *testing.T) {
	if _, err := NewStudy(seed, []string{"flappy-bird"}, nil); err == nil || err.Error() != `experiments: unknown app "flappy-bird"` {
		t.Errorf("unknown app: err = %v", err)
	}
	if _, err := NewStudy(seed, nil, []string{"quake"}); err == nil || err.Error() != `experiments: unknown benchmark "quake"` {
		t.Errorf("unknown benchmark: err = %v", err)
	}
	empty, err := NewStudy(seed, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.engines) != 0 {
		t.Errorf("empty study ran %d engines", len(empty.engines))
	}
	if _, err := empty.TempProfile("paper.io"); err == nil {
		t.Error("TempProfile over an arm the study did not run should fail")
	}
	if _, err := empty.Fig9(); err == nil {
		t.Error("Fig9 over arms the study did not run should fail")
	}
	if testing.Short() {
		t.Skip("runs the full paper study")
	}

	full := paperStudy(t)
	if n := len(full.engines); n != 16 {
		t.Errorf("full study holds %d engines, want 16", n)
	}
	// A one-artifact study with repeated names runs only its arms.
	amazon, err := NewStudy(seed, []string{"amazon", "amazon"}, []string{"nenamark"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(amazon.engines); n != 5 {
		t.Errorf("amazon+nenamark study holds %d engines, want 5", n)
	}
	if _, err := amazon.Table1(); err == nil {
		t.Error("Table1 needs all five apps; a one-app study should fail")
	}
	if _, err := amazon.Fig8(); err == nil {
		t.Error("Fig8 needs the 3DMark arms; a nenamark study should fail")
	}
	// Projections only read the engines, so they may run concurrently.
	var got *TempProfile
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err = amazon.TempProfile("amazon")
	}()
	again, err2 := amazon.TempProfile("amazon")
	wg.Wait()
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if again.Without.Name != got.Without.Name || again.With.Max() != got.With.Max() {
		t.Error("concurrent projections of one arm differ")
	}
	want, err := full.TempProfile("amazon")
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*trace.Series{{got.Without, want.Without}, {got.With, want.With}} {
		if !slices.Equal(pair[0].Values(), pair[1].Values()) || !slices.Equal(pair[0].Times(), pair[1].Times()) {
			t.Errorf("%s: one-artifact study differs from the full study", pair[1].Name)
		}
	}
	gotR, err := amazon.Residency("amazon", platform.DomBig)
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := full.Residency("amazon", platform.DomBig)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotR.FreqsHz, wantR.FreqsHz) || !maps.Equal(gotR.Without, wantR.Without) || !maps.Equal(gotR.With, wantR.With) {
		t.Error("amazon residency: one-artifact study differs from the full study")
	}
	gotNN, err := amazon.arms(odroidSpecs("nenamark", seed))
	if err != nil {
		t.Fatal(err)
	}
	wantNN, err := full.arms(odroidSpecs("nenamark", seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Modes() {
		a := gotNN[m].Foreground().(*workload.Nenamark).Score()
		b := wantNN[m].Foreground().(*workload.Nenamark).Score()
		if a != b {
			t.Errorf("nenamark %s: score %v, full study %v", m, a, b)
		}
	}
}
