package governor

import (
	"fmt"

	"repro/internal/snapbin"
)

// Snapshot support. Every shipped governor implements SaveState and
// LoadState — the stateless ones as no-ops — so the sim layer can
// require the interface on all of them and fail loudly if a future
// stateful governor forgets to implement it, instead of silently
// dropping its state from snapshots.

// SaveState implements the sim snapshot interface (stateless: no-op).
func (Performance) SaveState(w *snapbin.Writer) {}

// LoadState implements the sim snapshot interface (stateless: no-op).
func (Performance) LoadState(r *snapbin.Reader) error { return nil }

// SaveState implements the sim snapshot interface (stateless: no-op).
func (Powersave) SaveState(w *snapbin.Writer) {}

// LoadState implements the sim snapshot interface (stateless: no-op).
func (Powersave) LoadState(r *snapbin.Reader) error { return nil }

// SaveState implements the sim snapshot interface (stateless: no-op —
// the conservative governor reads only the domain's current OPP).
func (*Conservative) SaveState(w *snapbin.Writer) {}

// LoadState implements the sim snapshot interface (stateless: no-op).
func (*Conservative) LoadState(r *snapbin.Reader) error { return nil }

// SaveState serializes the ondemand governor's down-sampling hold.
func (o *Ondemand) SaveState(w *snapbin.Writer) { w.PutInt(o.hold) }

// LoadState restores state saved by SaveState.
func (o *Ondemand) LoadState(r *snapbin.Reader) error {
	hold := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("governor: ondemand: %w", err)
	}
	o.hold = hold
	return nil
}

// SaveState serializes the interactive governor's boost and
// above-hispeed hold clocks.
func (g *Interactive) SaveState(w *snapbin.Writer) {
	w.PutF64(g.boostUntil)
	w.PutF64(g.hispeedSince)
}

// LoadState restores state saved by SaveState.
func (g *Interactive) LoadState(r *snapbin.Reader) error {
	boostUntil := r.F64()
	hispeedSince := r.F64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("governor: interactive: %w", err)
	}
	g.boostUntil = boostUntil
	g.hispeedSince = hispeedSince
	return nil
}
