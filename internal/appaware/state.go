package appaware

import (
	"fmt"

	"repro/internal/snapbin"
)

// SaveState serializes the governor's decision history and control
// state: the event log and the prediction counter. The stability
// params cache (haveP/params) is derived lazily from the platform and
// rebuilds bit-identically on the next Control tick; the per-engine
// power lookup cache self-invalidates on engine change; and the shared
// transient cache is wiring the executor re-establishes.
//
// The snapshot layout (version 1) also holds a victim migration stack
// and a restore dwell clock. Every event is a migration and no victim
// ever returns, so those slots always hold the event log's PIDs and -1.
func (g *Governor) SaveState(w *snapbin.Writer) {
	w.PutInt(len(g.events))
	for _, ev := range g.events {
		w.PutF64(ev.TimeS)
		w.PutInt(int(ev.Kind))
		w.PutInt(ev.PID)
		w.PutF64(ev.PredictedFixedK)
		w.PutF64(ev.TimeToLimitS) // +Inf round-trips bit-exactly
	}
	w.PutInt(len(g.events))
	for _, ev := range g.events {
		w.PutInt(ev.PID)
	}
	w.PutF64(-1)
	w.PutInt(g.predictions)
}

// LoadState restores state saved by SaveState. It rejects what
// SaveState cannot write: an event other than a migration, a victim
// stack other than the events' PIDs, or a restore clock other than -1.
func (g *Governor) LoadState(r *snapbin.Reader) error {
	n := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("appaware: %w", err)
	}
	if n < 0 || n > r.Remaining() {
		return fmt.Errorf("appaware: implausible event count %d", n)
	}
	events := g.events[:0]
	for i := 0; i < n; i++ {
		events = append(events, Event{
			TimeS:           r.F64(),
			Kind:            EventKind(r.Int()),
			PID:             r.Int(),
			PredictedFixedK: r.F64(),
			TimeToLimitS:    r.F64(),
		})
	}
	if victims := r.Int(); r.Err() == nil && victims != n {
		return fmt.Errorf("appaware: %d victims for %d migrations", victims, n)
	}
	for i := range events {
		if pid := r.Int(); r.Err() == nil && pid != events[i].PID {
			return fmt.Errorf("appaware: victim %d is PID %d, migration moved PID %d", i, pid, events[i].PID)
		}
	}
	restoreClock := r.F64()
	predictions := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("appaware: %w", err)
	}
	for i, ev := range events {
		if ev.Kind != EventMigrate {
			return fmt.Errorf("appaware: event %d is a %v, not a migration", i, ev.Kind)
		}
	}
	if restoreClock != -1 {
		return fmt.Errorf("appaware: restore clock %v, want -1", restoreClock)
	}
	g.events = events
	g.predictions = predictions
	return nil
}
