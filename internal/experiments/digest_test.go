package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/trace"
)

var updateDigest = flag.Bool("update", false, "rewrite the paper-artifact digest")

// artifactDigestPath holds every plotted or tabulated number behind
// `repro -exp all` at seed 1, each formatted as the shortest decimal
// that round-trips to the same float64 bits.
var artifactDigestPath = filepath.Join("testdata", "artifact_digest.json")

// digest collects named number lists; encoding/json writes map keys
// sorted, so the file is stable.
type digest map[string][]string

func (d digest) add(name string, vs ...float64) {
	for _, v := range vs {
		d[name] = append(d[name], strconv.FormatFloat(v, 'g', -1, 64))
	}
}

func (d digest) addSeries(name string, s *trace.Series) {
	d.add(name+"/t", s.Times()...)
	d.add(name+"/v", s.Values()...)
}

// collectArtifacts projects every experiment `repro -exp all` renders
// from the full study at the package seed (repro's default, 1) and
// records the numbers each chart or table shows.
func collectArtifacts(t *testing.T) digest {
	t.Helper()
	st := paperStudy(t)
	d := digest{}
	for _, f := range []struct{ id, app string }{
		{"fig1", "paper.io"}, {"fig3", "stickman-hook"}, {"fig5", "amazon"},
	} {
		res, err := st.TempProfile(f.app)
		if err != nil {
			t.Fatal(err)
		}
		d.addSeries(f.id+"/without", res.Without)
		d.addSeries(f.id+"/with", res.With)
	}
	for _, f := range []struct {
		id, app string
		dom     platform.DomainID
	}{
		{"fig2", "paper.io", platform.DomGPU},
		{"fig4", "stickman-hook", platform.DomGPU},
		{"fig6", "amazon", platform.DomBig},
	} {
		res, err := st.Residency(f.app, f.dom)
		if err != nil {
			t.Fatal(err)
		}
		for _, hz := range res.FreqsHz {
			d.add(f.id+"/freq_hz", float64(hz))
			d.add(f.id+"/without", res.Without[hz])
			d.add(f.id+"/with", res.With[hz])
		}
	}

	rows1, err := st.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows1 {
		d.add("table1/"+r.App, r.WithoutFPS, r.WithFPS, r.ReductionPct)
	}

	curves, crit, err := Fig7Experiment()
	if err != nil {
		t.Fatal(err)
	}
	d.add("fig7/critical_w", crit)
	for i, c := range curves {
		name := "fig7/curve" + strconv.Itoa(i)
		a := c.Analysis
		d.add(name+"/analysis", c.PowerW, float64(a.Class), a.StableTheta, a.StableTempK, a.UnstableTheta, a.UnstableTempK)
		d.add(name+"/theta", c.Theta...)
		d.add(name+"/psi", c.Psi...)
	}

	f8, err := st.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	d.addSeries("fig8/alone", f8.Alone)
	d.addSeries("fig8/with_bml", f8.WithBML)
	d.addSeries("fig8/proposed", f8.Proposed)

	f9, err := st.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f9 {
		name := "fig9/" + r.Mode.String()
		d.add(name+"/total_w", r.TotalW)
		for _, s := range r.Slices() {
			d.add(name+"/shares", s.Share)
		}
	}

	rows2, err := st.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows2 {
		d.add("table2/"+r.Test, r.Alone, r.WithBML, r.Proposed)
	}
	return d
}

// psiTolerance bounds the drift allowed in Fig. 7's ψ samples, the one
// artifact that is a raw math.Exp evaluation with no absorbing sum.
// Go's amd64 FMA and SSE2 exp sequences and the portable exp differ in
// the last bits there (by at most 5.4e-15 over the three curves, up to
// hundreds of ulps near the roots, where ψ crosses zero); the
// fixed-point analysis and every simulated number match bit for bit.
const psiTolerance = 1e-13

// TestArtifactDigest pins the paper's Fig. 1-9 and Table 1-2
// reproductions bit for bit (Fig. 7's ψ samples to psiTolerance): the
// text charts print one to three digits, so only a full-precision
// digest catches last-bit drift. Regenerate with `go test
// ./internal/experiments -run TestArtifactDigest -update` after an
// intended model change.
func TestArtifactDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment")
	}
	gotD := collectArtifacts(t)
	if *updateDigest {
		out, err := json.MarshalIndent(gotD, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactDigestPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(artifactDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var wantD digest
	if err := json.Unmarshal(data, &wantD); err != nil {
		t.Fatalf("decode %s: %v", artifactDigestPath, err)
	}
	for name, ws := range wantD {
		gs := gotD[name]
		if len(gs) != len(ws) {
			t.Errorf("%s: %d numbers, want %d", name, len(gs), len(ws))
			continue
		}
		for i := range ws {
			if gs[i] != ws[i] && !(strings.HasSuffix(name, "/psi") && withinPsiTolerance(gs[i], ws[i])) {
				t.Errorf("%s[%d] = %s, want %s", name, i, gs[i], ws[i])
				break
			}
		}
	}
	for name := range gotD {
		if _, ok := wantD[name]; !ok {
			t.Errorf("%s: not in the digest", name)
		}
	}
}

func withinPsiTolerance(got, want string) bool {
	g, err1 := strconv.ParseFloat(got, 64)
	w, err2 := strconv.ParseFloat(want, 64)
	return err1 == nil && err2 == nil && math.Abs(g-w) <= psiTolerance
}
