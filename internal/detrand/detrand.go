// Package detrand wraps math/rand's source with a draw counter, making
// every RNG in the simulator snapshot-restorable: the state of a
// counted source is just (seed, draws), and restoring replays the seed
// and burns the counted draws. This works because math/rand's rngSource
// advances exactly one internal step per Int63 or Uint64 call, so the
// count is a complete description of the stream position.
//
// The wrapper implements rand.Source64. That matters: rand.Rand probes
// for Source64 at construction and changes which source method each
// derived generator (Uint64, Int63n, ...) calls — a wrapper hiding
// Uint64 would silently produce a different stream than the bare
// source it replaced, breaking bitwise compatibility with every golden
// trace in the repo.
//
// Seeding is deferred to the first draw (Int63, Uint64, or a Restore
// that burns draws), which yields the same stream: seeding fills a
// 607-word table, and many sources are never drawn from (a validation
// probe's platform, a noiseless sensor).
package detrand

import "math/rand"

// Source is a counted, restorable rand.Source64.
type Source struct {
	seed  int64
	draws uint64
	src   rand.Source64 // nil until the first draw
}

// New returns a counted source seeded like rand.NewSource(seed).
func New(seed int64) *Source {
	return &Source{seed: seed}
}

// rng returns the math/rand source, seeding it on first use.
func (s *Source) rng() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

// Int63 draws the next value, counting one draw.
func (s *Source) Int63() int64 {
	s.draws++
	return s.rng().Int63()
}

// Uint64 draws the next value, counting one draw.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.rng().Uint64()
}

// Seed reseeds the source and resets the draw count.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	if s.src != nil {
		s.src.Seed(seed)
	}
}

// State returns the stream position: the seed and how many draws have
// been taken since seeding.
func (s *Source) State() (seed int64, draws uint64) { return s.seed, s.draws }

// Restore repositions the stream at (seed, draws) by reseeding and
// burning draws values — O(draws), which is fine at simulator draw
// rates (a handful per control interval, not per step).
func (s *Source) Restore(seed int64, draws uint64) {
	s.Seed(seed)
	for i := uint64(0); i < draws; i++ {
		s.rng().Uint64()
	}
	s.draws = draws
}
