package mobisim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/platform"
)

// Content-addressed sweep-cell identity.
//
// A sweep cell's identity is the fully-resolved scenario content, not
// its spelling: the same device described by an inline spec, a
// registered spec, or a built-in preset name hashes identically,
// because the platform contribution is the normalized spec JSON rather
// than the reference used to reach it. Labels (Scenario.Name) never
// affect identity.
//
// Two keys are derived per cell:
//
//   - CellKey identifies the complete cell — every field that can
//     change simulation output participates.
//   - PrefixKey identifies the shared warm-up prefix: it is CellKey
//     with the thermal limit (LimitC) and run length (DurationS)
//     removed. Cells that agree on PrefixKey follow bitwise-identical
//     trajectories until the first limit-dependent control action, so
//     every executor simulates the prefix once, snapshots, and forks
//     each cell from the restored state (the planner's warm groups).
//     The seed participates in the prefix: replicates form separate
//     prefix groups, each groupable across the limit axis.
//
// Both keys are 64-bit FNV-1a over domain-separated canonical bytes,
// so they are stable across processes and platforms for a given schema
// version. Schema changes must bump the domain strings.
const (
	cellKeyDomain   = "mobisim/cellkey/v1\x00"
	prefixKeyDomain = "mobisim/prefixkey/v1\x00"
)

// CellKeyDomain exports the versioned cell-key domain string, so
// external stores (the simd daemon's on-disk result cache, shard
// protocols) can derive their layout from the same version the hashes
// are computed under: bumping the domain here automatically retires
// every store location derived from it.
const CellKeyDomain = cellKeyDomain

// CellKey returns the scenario's content hash: a stable 64-bit key over
// the normalized scenario and its fully-resolved platform content. It
// errors when the platform reference cannot be resolved.
func (s Scenario) CellKey() (uint64, error) {
	return s.contentKey(false)
}

// PrefixKey returns the content hash of the scenario's warm-up prefix:
// CellKey with LimitC and DurationS excluded. See the package comment
// above for the fork-from-snapshot contract this key encodes.
func (s Scenario) PrefixKey() (uint64, error) {
	return s.contentKey(true)
}

// contentKey resolves the scenario's platform and hashes the two with
// hashContent: the prefix key when prefix is set, else the cell key.
func (s Scenario) contentKey(prefix bool) (uint64, error) {
	c := s.cloneRefs()
	c.Normalize()
	platformJSON, err := resolvedPlatformJSON(c)
	if err != nil {
		return 0, err
	}
	return hashContent(c, platformJSON, prefix)
}

// hashContent hashes a normalized scenario and the normalized JSON of
// the platform it resolves to, without writing through c's references:
//
//	domain || scenarioJSON || 0x00 || platformJSON
//
// where scenarioJSON is c with identity-free fields (Name) and the
// platform reference (Platform, PlatformSpec) blanked, plus LimitC and
// DurationS for a prefix key.
func hashContent(c Scenario, platformJSON []byte, prefix bool) (uint64, error) {
	domain := cellKeyDomain
	c.Name = ""
	c.Platform = ""
	c.PlatformSpec = nil
	if prefix {
		domain = prefixKeyDomain
		c.LimitC = 0
		c.DurationS = 0
	}
	scenarioJSON, err := json.Marshal(c)
	if err != nil {
		return 0, fmt.Errorf("mobisim: content key: %w", err)
	}
	h := fnv.New64a()
	h.Write([]byte(domain))
	h.Write(scenarioJSON)
	h.Write([]byte{0})
	h.Write(platformJSON)
	return h.Sum64(), nil
}

// resolvedPlatformSpec returns the normalized spec of the platform the
// (already normalized) scenario resolves to: its inline spec, the
// registered spec of that name, or the embedded built-in spec. The
// error carries no package prefix so callers can attach their own
// context.
func resolvedPlatformSpec(c Scenario) (PlatformSpec, error) {
	if c.PlatformSpec != nil {
		// cloneRefs already deep-copied and Normalize normalized it.
		return *c.PlatformSpec, nil
	}
	spec, ok := registeredSpec(c.Platform)
	if !ok {
		if spec, ok = platform.BuiltinSpec(c.Platform); !ok {
			return PlatformSpec{}, fmt.Errorf("unknown platform %q", c.Platform)
		}
	}
	spec.Normalize()
	return spec, nil
}

// resolvedPlatformJSON returns the normalized JSON of the platform the
// (already normalized) scenario resolves to.
func resolvedPlatformJSON(c Scenario) ([]byte, error) {
	spec, err := resolvedPlatformSpec(c)
	if err != nil {
		return nil, fmt.Errorf("mobisim: content key: %w", err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("mobisim: content key: platform %q: %w", c.Platform, err)
	}
	return data, nil
}
