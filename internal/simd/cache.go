// Package simd is the sweep-as-a-service daemon behind cmd/simd: a
// long-running HTTP server that accepts Matrix/Scenario specs as jobs,
// expands them into content-addressed cells (mobisim.Cell), and runs
// them through a singleflight scheduler that plans each job's cache
// misses into lockstep batch units (mobisim.PlanBatchUnits) — the same
// units every other executor in the repository runs. It never
// recomputes a cell whose CellKey it has seen: results live in a
// two-tier cache (in-memory LRU over an on-disk store) shared with the
// one-shot CLI via `sweep -cache-dir`.
//
// The load-bearing invariant is byte-identity: a cache-hit response is
// byte-identical to a cold run of the same cell, because the cache
// round-trips metric values bitwise (IEEE-754 bit patterns, not
// decimal renderings) and responses are assembled through the same
// mobisim aggregation tail RunSweep uses.
package simd

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
	"repro/pkg/mobisim"
)

// Tier says where a cache lookup was satisfied.
type Tier int

const (
	// TierMiss means the key is unknown to both tiers.
	TierMiss Tier = iota
	// TierMemory is an in-memory LRU hit.
	TierMemory
	// TierDisk is an on-disk hit (the entry is promoted to memory).
	TierDisk
)

// On-disk entry formats. Every file starts with a magic line; decoding
// is strict, and any malformed, truncated or short file is treated as
// a cache miss, never an error — a corrupted store degrades to
// recomputation, not to a crashed daemon.
const (
	cellMagic = "simd-cell/1\n"
	// decode bounds: a corrupt length field must not drive allocation.
	maxCellMetrics   = 1 << 12
	maxMetricNameLen = 1 << 10
)

// DefaultMemCacheCap bounds the in-memory result tier when the caller
// passes no capacity.
const DefaultMemCacheCap = 4096

// CacheStats is an atomic snapshot of the cache counters.
type CacheStats struct {
	MemHits        uint64 `json:"mem_hits"`
	DiskHits       uint64 `json:"disk_hits"`
	Misses         uint64 `json:"misses"`
	Stores         uint64 `json:"stores"`
	StoreErrors    uint64 `json:"store_errors"`
	CorruptEntries uint64 `json:"corrupt_entries"`
	MemEntries     int    `json:"mem_entries"`
}

// HitRate returns hits/(hits+misses), 0 before the first lookup.
func (s CacheStats) HitRate() float64 {
	total := s.MemHits + s.DiskHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.MemHits+s.DiskHits) / float64(total)
}

// Cache is the two-tier content-addressed result cache: an in-memory
// LRU over an optional on-disk store keyed by CellKey. All methods are
// safe for concurrent use.
type Cache struct {
	fs  faultfs.FS
	dir string // "" = memory-only
	cap int

	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[uint64]*list.Element

	memHits, diskHits, misses  atomic.Uint64
	stores, storeErrs, corrupt atomic.Uint64
}

type cacheEntry struct {
	key     uint64
	metrics map[string]float64
}

// NewCache opens (creating if needed) a cache rooted at dir; an empty
// dir keeps the cache memory-only. capacity bounds the memory tier
// (<= 0 uses DefaultMemCacheCap).
//
// The disk layout is versioned by the mobisim content-key domain
// string: cell results live under dir/<CellKeyDomain> (NUL terminator
// stripped, slashes as path separators), so a domain bump in mobisim
// retires the old directory automatically — stale entries can never be
// read under a new hash schema.
func NewCache(dir string, capacity int) (*Cache, error) {
	return NewCacheFS(nil, dir, capacity)
}

// NewCacheFS is NewCache over an explicit filesystem seam; fsys nil
// means the real OS filesystem. Chaos tests pass a faultfs.Injector to
// script write faults against the store.
func NewCacheFS(fsys faultfs.FS, dir string, capacity int) (*Cache, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if capacity <= 0 {
		capacity = DefaultMemCacheCap
	}
	c := &Cache{fs: fsys, dir: dir, cap: capacity, lru: list.New(), byKey: make(map[uint64]*list.Element)}
	if dir != "" {
		if err := fsys.MkdirAll(c.cellDir(), 0o755); err != nil {
			return nil, fmt.Errorf("simd: cache dir: %w", err)
		}
	}
	return c, nil
}

// domainDir maps a versioned content-key domain string to its store
// directory under root.
func domainDir(root, domain string) string {
	return filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(domain, "\x00")))
}

func (c *Cache) cellDir() string { return domainDir(c.dir, mobisim.CellKeyDomain) }

func (c *Cache) cellPath(key uint64) string {
	return filepath.Join(c.cellDir(), fmt.Sprintf("%016x.cell", key))
}

// Dir returns the on-disk store root ("" for memory-only).
func (c *Cache) Dir() string { return c.dir }

// Get looks the key up in memory, then on disk (promoting a disk hit
// into the memory tier). The returned map is the caller's to keep.
func (c *Cache) Get(key uint64) (map[string]float64, Tier) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		m := copyMetrics(el.Value.(*cacheEntry).metrics)
		c.mu.Unlock()
		c.memHits.Add(1)
		return m, TierMemory
	}
	c.mu.Unlock()
	if c.dir != "" {
		data, err := c.fs.ReadFile(c.cellPath(key))
		if err == nil {
			if m, derr := decodeCell(data); derr == nil {
				c.admit(key, m)
				c.diskHits.Add(1)
				return copyMetrics(m), TierDisk
			}
			// A corrupted or truncated entry is a miss, not a crash;
			// the next Put overwrites it atomically.
			c.corrupt.Add(1)
		} else if !errors.Is(err, os.ErrNotExist) {
			c.corrupt.Add(1)
		}
	}
	c.misses.Add(1)
	return nil, TierMiss
}

// peek returns a copy of the key's memory-tier entry without counting
// a lookup or touching the LRU order.
func (c *Cache) peek(key uint64) (map[string]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return copyMetrics(el.Value.(*cacheEntry).metrics), true
}

// Put stores the metrics under key in both tiers. A disk write failure
// is counted but not fatal: the memory tier still serves the entry.
func (c *Cache) Put(key uint64, metrics map[string]float64) error {
	c.admit(key, copyMetrics(metrics))
	c.stores.Add(1)
	if c.dir == "" {
		return nil
	}
	if err := writeFileAtomic(c.fs, c.cellPath(key), encodeCell(metrics)); err != nil {
		c.storeErrs.Add(1)
		return fmt.Errorf("simd: cache put %016x: %w", key, err)
	}
	return nil
}

// admit inserts (or refreshes) a memory-tier entry, evicting from the
// LRU tail beyond capacity.
func (c *Cache) admit(key uint64, metrics map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).metrics = metrics
		c.lru.MoveToFront(el)
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, metrics: metrics})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.byKey, tail.Value.(*cacheEntry).key)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		MemHits:        c.memHits.Load(),
		DiskHits:       c.diskHits.Load(),
		Misses:         c.misses.Load(),
		Stores:         c.stores.Load(),
		StoreErrors:    c.storeErrs.Load(),
		CorruptEntries: c.corrupt.Load(),
		MemEntries:     entries,
	}
}

// encodeCell renders a metric set canonically: magic, count, then
// (name, IEEE-754 bits) pairs in sorted name order. Values round-trip
// bitwise — including NaN and infinities, which JSON could not carry —
// so a cache hit reproduces a cold run's metrics exactly.
func encodeCell(m map[string]float64) []byte {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := []byte(cellMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m[name]))
	}
	return buf
}

var errCorrupt = errors.New("simd: corrupt cache entry")

// decodeCell strictly parses encodeCell's format; any deviation —
// wrong magic, short buffer, hostile lengths, trailing bytes — returns
// errCorrupt.
func decodeCell(data []byte) (map[string]float64, error) {
	rest, ok := strings.CutPrefix(string(data), cellMagic)
	if !ok {
		return nil, errCorrupt
	}
	b := []byte(rest)
	if len(b) < 4 {
		return nil, errCorrupt
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if count > maxCellMetrics {
		return nil, errCorrupt
	}
	m := make(map[string]float64, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 2 {
			return nil, errCorrupt
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if n > maxMetricNameLen || len(b) < n+8 {
			return nil, errCorrupt
		}
		name := string(b[:n])
		b = b[n:]
		m[name] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) != 0 {
		return nil, errCorrupt
	}
	return m, nil
}

// writeFileAtomic writes via a temp file in the target directory and
// renames into place, so readers only ever see absent or complete
// entries — concurrent writers of the same key race benignly (both
// bodies are identical by content addressing).
func writeFileAtomic(fsys faultfs.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Chmod(tmp.Name(), 0o644); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return nil
}

func copyMetrics(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
