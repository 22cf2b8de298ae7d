package simclient

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/pkg/mobisim"
)

// Runner adapts a Client into a mobisim.CellRunner: each evaluator
// call's cache-miss cells (one generation, or generations 0 and 1) go
// to the daemon as one scenarios-list job and the per-cell metrics are
// collected from the job's SSE feed (the "cell" events carry them
// exactly; only non-finite values are transport-mapped, which the
// CellRunner contract permits). A daemon crash mid-generation is
// absorbed by idempotent resubmission: the restarted daemon serves
// completed cells from its result cache and recomputes the rest, so
// the search trajectory stays byte-identical to local evaluation.
type Runner struct {
	Client *Client
}

// cellEvent mirrors the daemon's "cell" SSE payload. Metric values
// are pointers because the daemon maps non-finite values to null.
type cellEvent struct {
	Index   int                 `json:"index"`
	Metrics map[string]*float64 `json:"metrics"`
}

// endEvent mirrors the terminal "end" SSE payload's relevant fields.
type endEvent struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// RunScenarios implements mobisim.CellRunner.
func (r *Runner) RunScenarios(ctx context.Context, specs []mobisim.Scenario) ([]map[string]float64, error) {
	envelope, err := scenariosEnvelope(specs)
	if err != nil {
		return nil, err
	}
	c := r.Client

	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt-1, 0); err != nil {
				return nil, err
			}
			c.logf("simclient: remote generation retry: %v", lastErr)
		}
		st, err := c.Submit(ctx, envelope)
		if err != nil {
			return nil, err
		}
		out := make([]map[string]float64, len(specs))
		got := 0
		var endErr error
		// Always stream from 0: cell metrics are content-addressed, so
		// replayed or duplicated events are idempotent by index, and a
		// restarted daemon's fresh event ids can never be filtered away.
		_, serr := c.Stream(ctx, st.ID, 0, func(ev Event) error {
			switch ev.Type {
			case "cell":
				var ce cellEvent
				if err := json.Unmarshal(ev.Data, &ce); err != nil {
					return fmt.Errorf("simclient: cell event: %w", err)
				}
				if ce.Index < 0 || ce.Index >= len(out) {
					return fmt.Errorf("simclient: cell event index %d out of range (%d cells)", ce.Index, len(out))
				}
				m := make(map[string]float64, len(ce.Metrics))
				for name, v := range ce.Metrics {
					if v == nil {
						// The daemon transports non-finite values as
						// null; NaN preserves "non-finite" through the
						// replicate aggregation, which is all that can
						// matter to the trajectory.
						m[name] = math.NaN()
						continue
					}
					m[name] = *v
				}
				if out[ce.Index] == nil {
					got++
				}
				out[ce.Index] = m
			case "end":
				var ee endEvent
				if err := json.Unmarshal(ev.Data, &ee); err != nil {
					return fmt.Errorf("simclient: end event: %w", err)
				}
				if ee.State == StateFailed {
					endErr = fmt.Errorf("simclient: job %s failed: %s", st.ID, ee.Error)
				} else if ee.State == StateCanceled {
					endErr = errResubmit
				}
			}
			return nil
		})
		switch {
		case serr == nil && endErr == nil && got == len(specs):
			return out, nil
		case serr == nil && endErr == nil:
			return nil, fmt.Errorf("simclient: job %s completed with %d of %d cell events", st.ID, got, len(specs))
		case endErr != nil && endErr != errResubmit:
			return nil, endErr
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			// Stream broke or the daemon canceled the job (shutdown):
			// back off and resubmit idempotently.
			lastErr = serr
			if lastErr == nil {
				lastErr = fmt.Errorf("job canceled by daemon")
			}
		}
	}
	return nil, fmt.Errorf("simclient: remote generation: giving up after %d attempts: %w", c.maxAttempts(), lastErr)
}

// errResubmit marks a daemon-side cancellation worth resubmitting.
var errResubmit = fmt.Errorf("simclient: resubmit")

// scenariosEnvelope renders the scenarios-list job body. The encoding
// is deterministic (struct field order, normalized scenarios), so
// identical generations hash to identical idempotency keys.
func scenariosEnvelope(specs []mobisim.Scenario) ([]byte, error) {
	raws := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		data, err := s.JSON()
		if err != nil {
			return nil, fmt.Errorf("simclient: scenario %d: %w", i, err)
		}
		raws[i] = data
	}
	return json.Marshal(struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}{raws})
}

var _ mobisim.CellRunner = (*Runner)(nil)
