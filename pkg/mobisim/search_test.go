package mobisim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testSearchPlan is a small mixed grid, two numeric axes and one
// categorical axis (9×11×3 = 297 points), started at the origin. knobs
// carries the seed, goal and search knobs; zero knobs take Normalize's
// defaults. No scenario is ever built: the tests' evaluators score the
// grid indices directly.
func testSearchPlan(knobs OptimizeSpec) *searchPlan {
	knobs.Normalize()
	return &searchPlan{
		spec: knobs,
		muts: []Mutation{
			{Param: "x", Min: 0, Max: 8, Step: 1},
			{Param: "y", Min: 50, Max: 70, Step: 2},
			{Param: "mode", Values: []string{"a", "b", "c"}},
		},
		start: point{0, 0, 0},
	}
}

// quadraticObjective scores a point of testSearchPlan by negated
// distance to a known optimum plus a categorical bonus.
func quadraticObjective(pt point) float64 {
	x, y, m := float64(pt[0]), float64(pt[1]), float64(pt[2])
	return -((x-6)*(x-6) + (y-7)*(y-7)) + 2*m
}

// quadraticEval maximizes quadraticObjective and marks one y stripe
// infeasible, mimicking a constrained objective. Deterministic in the
// point alone.
func quadraticEval(ctx context.Context, pts []point) ([]SearchCandidate, error) {
	out := make([]SearchCandidate, len(pts))
	for i, pt := range pts {
		obj := quadraticObjective(pt)
		out[i] = SearchCandidate{Objective: obj, Feasible: pt[1] != 3, Metrics: map[string]float64{"obj": obj}}
	}
	return out, nil
}

// genEval is a fake evaluator of one generation.
type genEval func(ctx context.Context, pts []point) ([]SearchCandidate, error)

// perGen lifts a one-generation fake evaluator to an evalFunc that
// evaluates the generations of a call in order.
func perGen(f genEval) evalFunc {
	return func(ctx context.Context, gens [][]point) ([][]SearchCandidate, error) {
		out := make([][]SearchCandidate, len(gens))
		for i, pts := range gens {
			var err error
			if out[i], err = f(ctx, pts); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

func mustClimb(t *testing.T, plan *searchPlan, eval genEval) (*SearchResult, point) {
	t.Helper()
	r, best, err := plan.climb(context.Background(), perGen(eval))
	if err != nil {
		t.Fatal(err)
	}
	return r, best
}

// paramKey renders a candidate's parameter assignment as one string.
func paramKey(c SearchCandidate) string {
	var b strings.Builder
	for _, pv := range c.Params {
		if pv.Value != nil {
			fmt.Fprintf(&b, "%s=%g;", pv.Param, *pv.Value)
		} else {
			fmt.Fprintf(&b, "%s=%s;", pv.Param, pv.Choice)
		}
	}
	return b.String()
}

func TestSearchDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, _ := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: seed}), quadraticEval)
		b, _ := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: seed}), quadraticEval)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two runs disagree", seed)
		}
	}
	a, _ := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: 1, MaxGenerations: 6, Patience: 6}), quadraticEval)
	b, _ := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: 2, MaxGenerations: 6, Patience: 6}), quadraticEval)
	if reflect.DeepEqual(a.Generations, b.Generations) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestSearchMonotoneBest pins the best-so-far invariants: the reported
// objective never worsens across generations, the incumbent is always
// feasible, and every generation's BestObjective matches the running
// maximum of its feasible candidates. A minimized mirror objective
// must climb the identical trajectory.
func TestSearchMonotoneBest(t *testing.T) {
	negated := func(ctx context.Context, pts []point) ([]SearchCandidate, error) {
		out, err := quadraticEval(ctx, pts)
		for i := range out {
			out[i].Objective = -out[i].Objective
		}
		return out, err
	}
	for seed := int64(1); seed <= 20; seed++ {
		plan := testSearchPlan(OptimizeSpec{Seed: seed})
		r, bestPt := mustClimb(t, plan, quadraticEval)
		if r.Best == nil || !r.Best.Feasible {
			t.Fatalf("seed %d: no feasible incumbent", seed)
		}
		if got := plan.paramValues(bestPt); !reflect.DeepEqual(got, r.Best.Params) {
			t.Fatalf("seed %d: best point %v does not match the best candidate's params", seed, bestPt)
		}
		best := math.Inf(-1)
		haveBest := false
		for _, g := range r.Generations {
			for _, c := range g.Candidates {
				if c.Feasible && c.Objective > best {
					best = c.Objective
					haveBest = true
				}
			}
			if haveBest && g.BestObjective != best {
				t.Fatalf("seed %d gen %d: BestObjective %v, running max %v", seed, g.Gen, g.BestObjective, best)
			}
		}
		if r.Best.Objective != best {
			t.Fatalf("seed %d: Best %v, running max %v", seed, r.Best.Objective, best)
		}

		mirror, _ := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: seed, Objective: Objective{Goal: GoalMinimize}}), negated)
		if len(mirror.Generations) != len(r.Generations) || mirror.StopReason != r.StopReason {
			t.Fatalf("seed %d: minimized mirror ran %d generations (%s), maximized %d (%s)",
				seed, len(mirror.Generations), mirror.StopReason, len(r.Generations), r.StopReason)
		}
		for gi, g := range mirror.Generations {
			if g.BestObjective != -r.Generations[gi].BestObjective {
				t.Fatalf("seed %d gen %d: minimized best %v, want %v", seed, gi, g.BestObjective, -r.Generations[gi].BestObjective)
			}
			for ci, c := range g.Candidates {
				if paramKey(c) != paramKey(r.Generations[gi].Candidates[ci]) {
					t.Fatalf("seed %d gen %d: minimized mirror drew a different candidate %d", seed, gi, ci)
				}
			}
		}
	}
}

// TestSearchNoDuplicateCandidates pins the dedup set: no point is
// ever evaluated twice in one search.
func TestSearchNoDuplicateCandidates(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r, _ := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: seed, MaxGenerations: 64, Patience: 64, Neighbors: 16}), quadraticEval)
		seen := map[string]bool{}
		n := 0
		for _, g := range r.Generations {
			for ci, c := range g.Candidates {
				if c.Gen != g.Gen || c.Index != ci {
					t.Fatalf("seed %d: candidate labeled gen %d index %d in gen %d slot %d", seed, c.Gen, c.Index, g.Gen, ci)
				}
				key := paramKey(c)
				if seen[key] {
					t.Fatalf("seed %d: point %s evaluated twice", seed, key)
				}
				seen[key] = true
				n++
			}
		}
		if n != r.Evaluated {
			t.Fatalf("seed %d: trace holds %d candidates, Evaluated says %d", seed, n, r.Evaluated)
		}
	}
}

func TestSearchStopReasons(t *testing.T) {
	// Exhaustion: a 2-point grid runs out of unseen neighbors at once.
	tiny := &searchPlan{spec: testSearchPlan(OptimizeSpec{Seed: 1}).spec, muts: []Mutation{{Param: "x", Min: 0, Max: 1, Step: 1}}, start: point{0}}
	byIndex := func(ctx context.Context, pts []point) ([]SearchCandidate, error) {
		out := make([]SearchCandidate, len(pts))
		for i, pt := range pts {
			out[i] = SearchCandidate{Objective: float64(pt[0]), Feasible: true}
		}
		return out, nil
	}
	r, _ := mustClimb(t, tiny, byIndex)
	if r.StopReason != stopExhausted || !r.Converged {
		t.Fatalf("tiny grid: got stop %q converged %v", r.StopReason, r.Converged)
	}
	if r.Evaluated != 2 {
		t.Fatalf("tiny grid: evaluated %d points, want 2", r.Evaluated)
	}

	// Patience: a flat objective never improves after generation 0.
	flat := func(ctx context.Context, pts []point) ([]SearchCandidate, error) {
		out := make([]SearchCandidate, len(pts))
		for i := range pts {
			out[i] = SearchCandidate{Objective: 1, Feasible: true}
		}
		return out, nil
	}
	r, _ = mustClimb(t, testSearchPlan(OptimizeSpec{Seed: 1, Patience: 3}), flat)
	if r.StopReason != stopPatience || !r.Converged {
		t.Fatalf("flat objective: got stop %q converged %v", r.StopReason, r.Converged)
	}
	if got := len(r.Generations); got != 4 { // gen 0 + 3 stalled
		t.Fatalf("flat objective: %d generations, want 4", got)
	}

	// Budget: patience larger than the horizon runs to MaxGenerations.
	r, _ = mustClimb(t, testSearchPlan(OptimizeSpec{Seed: 1, MaxGenerations: 2, Patience: 100}), quadraticEval)
	if r.StopReason != stopMaxGenerations || r.Converged {
		t.Fatalf("budget stop: got stop %q converged %v", r.StopReason, r.Converged)
	}
}

func TestSearchNoFeasiblePoint(t *testing.T) {
	infeasible := func(ctx context.Context, pts []point) ([]SearchCandidate, error) {
		out := make([]SearchCandidate, len(pts))
		for i := range pts {
			out[i] = SearchCandidate{Objective: 1, Invalid: "always"}
		}
		return out, nil
	}
	r, best := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: 1, Patience: 2}), infeasible)
	if r.Best != nil || best != nil {
		t.Fatalf("infeasible search produced an incumbent: %+v at %v", r.Best, best)
	}
	if r.StopReason != stopPatience {
		t.Fatalf("infeasible search stopped with %q", r.StopReason)
	}
	for _, g := range r.Generations {
		if g.Improved || g.BestObjective != 0 {
			t.Fatalf("gen %d: improved %v best %v without a feasible candidate", g.Gen, g.Improved, g.BestObjective)
		}
	}
}

func TestSearchEvalContract(t *testing.T) {
	short := func(ctx context.Context, pts []point) ([]SearchCandidate, error) {
		return nil, nil
	}
	if _, _, err := testSearchPlan(OptimizeSpec{Seed: 1}).climb(context.Background(), perGen(short)); err == nil {
		t.Fatal("short evaluator result accepted")
	}
	// Fewer generation slices than generations asked for (generations 0
	// and 1 arrive in one call, so dropping the last one is short).
	dropGen := func(ctx context.Context, gens [][]point) ([][]SearchCandidate, error) {
		out, err := perGen(quadraticEval)(ctx, gens)
		return out[:len(out)-1], err
	}
	if _, _, err := testSearchPlan(OptimizeSpec{Seed: 1}).climb(context.Background(), dropGen); err == nil {
		t.Fatal("short evaluator generation list accepted")
	}
	calls := 0
	failing := func(ctx context.Context, pts []point) ([]SearchCandidate, error) {
		if calls++; calls > 1 {
			return nil, fmt.Errorf("boom")
		}
		return quadraticEval(ctx, pts)
	}
	if _, _, err := testSearchPlan(OptimizeSpec{Seed: 1}).climb(context.Background(), perGen(failing)); err == nil {
		t.Fatal("evaluator error swallowed")
	}
}

func TestSearchHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := testSearchPlan(OptimizeSpec{Seed: 1}).climb(ctx, perGen(quadraticEval)); err == nil {
		t.Fatal("canceled context not honored")
	}
}

// TestSearchFindsOptimum pins search quality on the synthetic bowl: with
// a modest budget the climb should land on (or next to) the optimum.
func TestSearchFindsOptimum(t *testing.T) {
	r, best := mustClimb(t, testSearchPlan(OptimizeSpec{Seed: 3, Neighbors: 8, MaxGenerations: 64, Patience: 8}), quadraticEval)
	if r.Best == nil {
		t.Fatal("no incumbent")
	}
	// Optimum: x=6, y index 7, mode c → objective 4.
	if r.Best.Objective < 2 || quadraticObjective(best) != r.Best.Objective {
		t.Fatalf("hill-climb stalled at objective %v (point %v)", r.Best.Objective, best)
	}
}

func TestAxisGrid(t *testing.T) {
	m := Mutation{Param: ParamLimitC, Min: 55, Max: 75, Step: 5}
	if got := m.points(); got != 5 {
		t.Fatalf("points: got %d, want 5", got)
	}
	if got := m.value(4); got != 75 {
		t.Fatalf("value(4): got %v, want 75", got)
	}
	for v, want := range map[float64]int{54: 0, 55: 0, 57: 0, 58: 1, 75: 4, 99: 4, -10: 0} {
		if got := m.index(v); got != want {
			t.Errorf("index(%v): got %d, want %d", v, got, want)
		}
	}
	if got := (Mutation{Param: ParamGovernor, Values: []string{GovNone, GovIPA}}).points(); got != 2 {
		t.Fatalf("categorical points: got %d, want 2", got)
	}
	if got := (point{3, 0, 1}).key(); got != "3,0,1" {
		t.Fatalf("key: got %q", got)
	}
}
