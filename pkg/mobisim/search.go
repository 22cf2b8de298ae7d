package mobisim

// The seeded hill-climb behind Optimize.
//
// Determinism is the core contract: for a fixed plan and a
// deterministic evaluator, climb produces an identical SearchResult on
// every run, however the evaluator parallelizes internally. All
// randomness flows from the spec's Seed through one PRNG per
// generation; the loop itself is single-threaded.
//
// Generation 1 draws around the start point whatever generation 0
// scores, so generations 0 and 1 run as one evaluator batch, recorded
// in order exactly as if they had run one after the other.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
)

// Stop reasons a SearchResult reports.
const (
	// stopPatience: Patience consecutive generations without improvement.
	stopPatience = "patience"
	// stopExhausted: no unseen neighbor could be generated.
	stopExhausted = "exhausted"
	// stopMaxGenerations: the generation budget ran out.
	stopMaxGenerations = "max_generations"
)

// point is one candidate of a search plan: an index per axis of
// searchPlan.muts (a grid index for a numeric mutation, a value index
// for a categorical one). Integer indices make candidate identity
// exact: float round-off can never split or alias candidates.
type point []int

// key returns the point's identity in the search's dedup set.
func (pt point) key() string {
	b := make([]byte, 0, 4*len(pt))
	for i, v := range pt {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// evalFunc evaluates consecutive generations in one call, returning
// per generation one SearchCandidate per point with the evaluation
// fields set (CellKey, Objective in the spec's orientation, Feasible,
// Invalid, Cached, Metrics; provenance as if run in order); climb fills
// Gen, Index and Params. It must be deterministic in gens.
type evalFunc func(ctx context.Context, gens [][]point) ([][]SearchCandidate, error)

// climb runs the plan's seeded hill-climb: the start point is
// evaluated as generation 0, then each generation draws up to
// Neighbors unseen neighbors of the incumbent, evaluates them, and
// moves the incumbent to the generation's best feasible candidate when
// it beats the best so far by more than MinDelta. No point is
// evaluated twice, and the best objective never worsens. Scores are
// higher-is-better: a minimized objective compares as 0 - objective.
//
// It returns the trajectory (without the evaluator's provenance
// counters or BestScenario) and the incumbent's point, nil when no
// candidate was feasible.
func (p *searchPlan) climb(ctx context.Context, eval evalFunc) (*SearchResult, point, error) {
	spec := p.spec
	r := &SearchResult{
		Schema: SearchResultSchema,
		Name:   spec.Name,
		Metric: spec.Objective.Metric,
		Goal:   spec.Objective.Goal,
		Seed:   spec.Seed,
	}
	score := func(c *SearchCandidate) float64 {
		if spec.Objective.Goal == GoalMinimize {
			return 0 - c.Objective
		}
		return c.Objective
	}
	var best point
	// step evaluates generations first, first+1, … in one evaluator
	// call and records them in order, reporting whether the last one
	// moved the incumbent.
	step := func(first int, gens ...[]point) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		out, err := eval(ctx, gens)
		if err != nil {
			return false, err
		}
		if len(out) != len(gens) {
			return false, fmt.Errorf("mobisim: search generation %d: evaluator returned %d generations for %d", first, len(out), len(gens))
		}
		improved := false
		for k, pts := range gens {
			gen, cands := first+k, out[k]
			if len(cands) != len(pts) {
				return false, fmt.Errorf("mobisim: search generation %d: evaluator returned %d results for %d candidates", gen, len(cands), len(pts))
			}
			r.Evaluated += len(pts)
			bi := -1
			for i := range cands {
				c := &cands[i]
				c.Gen, c.Index, c.Params = gen, i, p.paramValues(pts[i])
				if c.Feasible && (bi < 0 || score(c) > score(&cands[bi])) {
					bi = i
				}
			}
			improved = bi >= 0 && (r.Best == nil || score(&cands[bi]) > score(r.Best)+spec.MinDelta)
			if improved {
				c := cands[bi]
				r.Best, best = &c, pts[bi]
			}
			g := SearchGeneration{Gen: gen, Improved: improved, Candidates: cands}
			if r.Best != nil {
				g.BestObjective = r.Best.Objective
			}
			r.Generations = append(r.Generations, g)
		}
		return improved, nil
	}

	seen := map[string]bool{p.start.key(): true}
	origin := p.start
	// Generation 0 runs with generation 1, or alone after the loop.
	wait := [][]point{{p.start}}
	stall := 0
	r.StopReason = stopMaxGenerations
	for gen := 1; gen <= spec.MaxGenerations; gen++ {
		rng := rand.New(rand.NewSource(deriveSeed(spec.Seed, gen)))
		pts := p.neighbors(rng, origin, spec.Neighbors, seen)
		if len(pts) == 0 {
			r.StopReason, r.Converged = stopExhausted, true
			break
		}
		improved, err := step(gen-len(wait), append(wait, pts)...)
		if err != nil {
			return nil, nil, err
		}
		wait = nil
		if improved {
			origin, stall = best, 0
		} else {
			stall++
		}
		if stall >= spec.Patience {
			r.StopReason, r.Converged = stopPatience, true
			break
		}
	}
	if wait != nil {
		if _, err := step(0, wait...); err != nil {
			return nil, nil, err
		}
	}
	return r, best, nil
}

// neighborAttempts bounds random neighbor draws per requested candidate
// before falling back to the systematic unit-step scan.
const neighborAttempts = 16

// neighbors draws up to want distinct points near origin that have
// never been generated before, marking each in seen. Random draws
// mutate one axis (occasionally two). When random sampling runs dry —
// a heavily explored neighborhood — a scan of the unit-step neighbors
// in fixed axis order (numeric -1 then +1, then each other categorical
// value) tops the batch up, so the search only reports exhaustion when
// the local neighborhood truly is.
func (p *searchPlan) neighbors(rng *rand.Rand, origin point, want int, seen map[string]bool) []point {
	var out []point
	add := func(pt point) {
		if key := pt.key(); !seen[key] {
			seen[key] = true
			out = append(out, pt)
		}
	}
	for attempts := 0; len(out) < want && attempts < want*neighborAttempts; attempts++ {
		pt := slices.Clone(origin)
		n := 1
		if len(pt) > 1 && rng.Intn(4) == 0 {
			n = 2
		}
		mutated := false
		for k := 0; k < n; k++ {
			ai := rng.Intn(len(pt))
			mutated = p.muts[ai].mutate(rng, &pt[ai]) || mutated
		}
		if mutated {
			add(pt)
		}
	}
	for i, m := range p.muts {
		lo, hi := 0, m.points()-1
		if m.numeric() {
			lo, hi = max(origin[i]-1, lo), min(origin[i]+1, hi)
		}
		for v := lo; v <= hi && len(out) < want; v++ {
			if v != origin[i] {
				pt := slices.Clone(origin)
				pt[i] = v
				add(pt)
			}
		}
	}
	return out
}

// mutate moves an axis index at random and reports whether it moved: a
// numeric index jumps 1–3 grid steps either way, clamped to the grid;
// a categorical index takes a uniformly drawn different value.
func (m Mutation) mutate(rng *rand.Rand, idx *int) bool {
	n := m.points()
	if n < 2 {
		return false
	}
	if !m.numeric() {
		next := rng.Intn(n - 1)
		if next >= *idx {
			next++
		}
		*idx = next
		return true
	}
	jump := 1 + rng.Intn(min(3, n-1))
	if rng.Intn(2) == 0 {
		jump = -jump
	}
	next := min(max(*idx+jump, 0), n-1)
	if next == *idx {
		return false
	}
	*idx = next
	return true
}
