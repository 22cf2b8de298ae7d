// Package sweep holds the two pieces of the sweep engine that sit
// below pkg/mobisim: TaskPool, the repository's one worker substrate,
// and DeriveSeed, the seed derivation pkg/mobisim uses for matrix
// replicates, search replicates and the search's per-generation PRNG.
// Matrices, cells, their aggregation and the search live in
// pkg/mobisim.
//
// Tasks write disjoint result slots and the simulator is deterministic
// (same seed ⇒ bitwise-identical run), so results never depend on
// worker interleaving: a pool with N workers produces byte-identical
// output to a serial pass.
package sweep

// DeriveSeed maps (base, replicate) to a scenario seed with a
// SplitMix64 finalizer: deterministic, stable across releases (pinned
// by a golden test), and well-spread even for adjacent inputs. The
// derived stream is what makes replicate seeds independent while the
// paired design keeps them equal across parameter cells.
func DeriveSeed(base int64, replicate int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(uint32(replicate)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
