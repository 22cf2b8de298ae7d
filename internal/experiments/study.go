package experiments

import (
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/pkg/mobisim"
)

// Study is the finished engines of the paper's controlled arms at one
// seed. NewStudy builds and runs each distinct arm exactly once; every
// figure and table is then a read-only projection over those engines,
// so artifacts that share an arm (Fig. 1 and Table I, Fig. 8 and
// Table II) share its run.
type Study struct {
	seed    int64
	index   map[mobisim.Scenario]int // arm → its engine's position
	engines []*mobisim.Engine
}

// NewStudy runs both Section III arms of every listed Nexus app and the
// three Section IV-C arms of every listed Odroid benchmark. Repeated
// names and arms run once, so there are at most 16 arms, and each runs
// on its own goroutine and engine: the result does not depend on their
// order or GOMAXPROCS.
func NewStudy(seed int64, nexusApps, odroidBenches []string) (*Study, error) {
	st := &Study{seed: seed, index: make(map[mobisim.Scenario]int)}
	add := func(arms []mobisim.Scenario, err error) error {
		for _, spec := range arms {
			if _, ok := st.index[spec]; !ok {
				st.index[spec] = len(st.index)
			}
		}
		return err
	}
	for _, app := range nexusApps {
		if err := add(nexusSpecs(app, seed)); err != nil {
			return nil, err
		}
	}
	for _, bench := range odroidBenches {
		if err := add(odroidSpecs(bench, seed)); err != nil {
			return nil, err
		}
	}

	st.engines = make([]*mobisim.Engine, len(st.index))
	errs := make([]error, len(st.index))
	var wg sync.WaitGroup
	for spec, i := range st.index {
		wg.Add(1)
		go func(spec mobisim.Scenario, i int) {
			defer wg.Done()
			eng, err := mobisim.New(spec)
			if err == nil {
				err = eng.Run()
			}
			st.engines[i], errs[i] = eng, err
		}(spec, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// arms returns the finished engines of the given arms in order, or an
// error naming the first arm the study did not run.
func (s *Study) arms(specs []mobisim.Scenario, err error) ([]*mobisim.Engine, error) {
	if err != nil {
		return nil, err
	}
	out := make([]*mobisim.Engine, len(specs))
	for i, spec := range specs {
		at, ok := s.index[spec]
		if !ok {
			return nil, fmt.Errorf("experiments: study did not run %s under %s on %s", spec.Workload, spec.Governor, spec.Platform)
		}
		out[i] = s.engines[at]
	}
	return out, nil
}

// named returns a copy of an engine's series under a chart name. The
// copy shares the samples, so projections never write to an engine and
// may run concurrently.
func named(s *trace.Series, name string) *trace.Series {
	cp := *s
	cp.Name = name
	return &cp
}
