package simd

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/mobisim"
)

func testMetrics() map[string]float64 {
	return map[string]float64{
		"peak_c":      61.52384937,
		"avg_power_w": 3.25,
		"median_fps":  math.NaN(),
		"neg_zero":    math.Copysign(0, -1),
		"inf":         math.Inf(1),
	}
}

// metricsBitwiseEqual compares by IEEE-754 bit pattern, so NaN == NaN
// and -0 != +0 — the equality the byte-identity invariant needs.
func metricsBitwiseEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || math.Float64bits(va) != math.Float64bits(vb) {
			return false
		}
	}
	return true
}

// TestCacheRoundTrip pins the two-tier lookup path: miss, then memory
// hit, then — after dropping the memory tier — a disk hit that
// round-trips every value bitwise, NaN, -0 and Inf included.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	const key = 0xdeadbeefcafef00d
	if _, tier := c.Get(key); tier != TierMiss {
		t.Fatalf("empty cache: got tier %v, want miss", tier)
	}
	want := testMetrics()
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, tier := c.Get(key)
	if tier != TierMemory || !metricsBitwiseEqual(got, want) {
		t.Fatalf("memory get: tier %v, metrics %v", tier, got)
	}
	// A fresh cache over the same dir has an empty memory tier: the
	// lookup must fall through to disk and promote.
	c2, err := NewCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, tier = c2.Get(key)
	if tier != TierDisk {
		t.Fatalf("disk get: tier %v, want disk", tier)
	}
	if !metricsBitwiseEqual(got, want) {
		t.Fatalf("disk round-trip not bitwise: got %v want %v", got, want)
	}
	if _, tier = c2.Get(key); tier != TierMemory {
		t.Fatalf("post-promotion get: tier %v, want memory", tier)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 1 || st.Misses != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestCacheMemoryOnly pins that an empty dir disables disk but keeps
// the memory tier working.
func TestCacheMemoryOnly(t *testing.T) {
	c, err := NewCache("", 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dir() != "" {
		t.Errorf("memory-only cache reports dir %q", c.Dir())
	}
	if err := c.Put(1, map[string]float64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if _, tier := c.Get(1); tier != TierMemory {
		t.Error("memory-only put not readable")
	}
}

// TestCacheLRUEviction pins the memory bound: beyond capacity the
// least-recently-used entry leaves the memory tier (but survives on
// disk).
func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1); key <= 3; key++ {
		if err := c.Put(key, map[string]float64{"k": float64(key)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().MemEntries; got != 2 {
		t.Fatalf("mem entries: %d, want 2", got)
	}
	// Key 1 is the eviction victim: it must come back from disk.
	if _, tier := c.Get(1); tier != TierDisk {
		t.Errorf("evicted key: want disk hit")
	}
	if _, tier := c.Get(3); tier != TierMemory {
		t.Errorf("recent key: want memory hit")
	}
}

// TestCacheCorruptEntry is the corrupted-store contract: a truncated,
// garbage, wrong-magic or trailing-bytes cell file is a miss — counted
// but never an error or a crash — and a later Put repairs it.
func TestCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	const key = 42
	want := testMetrics()
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	path := c.cellPath(key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"truncated-header": good[:len(cellMagic)+2],
		"truncated-body":   good[:len(good)-3],
		"wrong-magic":      append([]byte("simd-cell/9\n"), good[len(cellMagic):]...),
		"trailing-bytes":   append(append([]byte(nil), good...), 0xff),
		"hostile-count":    append([]byte(cellMagic), 0xff, 0xff, 0xff, 0xff),
		"garbage":          []byte("not a cache file"),
		"empty":            {},
	}
	for name, data := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewCache(dir, 8)
			if err != nil {
				t.Fatal(err)
			}
			before := fresh.Stats().CorruptEntries
			if m, tier := fresh.Get(key); tier != TierMiss {
				t.Fatalf("corrupt entry served: tier %v, metrics %v", tier, m)
			}
			st := fresh.Stats()
			if st.CorruptEntries != before+1 {
				t.Errorf("corrupt counter: %d, want %d", st.CorruptEntries, before+1)
			}
			if err := fresh.Put(key, want); err != nil {
				t.Fatal(err)
			}
			again, err := NewCache(dir, 8)
			if err != nil {
				t.Fatal(err)
			}
			if m, tier := again.Get(key); tier != TierDisk || !metricsBitwiseEqual(m, want) {
				t.Errorf("repaired entry: tier %v", tier)
			}
		})
	}
}

// TestCacheLayoutVersioned pins the on-disk layout contract: paths
// derive from the mobisim content-key domain strings, so a domain bump
// retires the store automatically.
func TestCacheLayoutVersioned(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0xab, map[string]float64{"x": 1}); err != nil {
		t.Fatal(err)
	}
	wantCell := filepath.Join(dir, filepath.FromSlash(strings.TrimSuffix(mobisim.CellKeyDomain, "\x00")), "00000000000000ab.cell")
	if _, err := os.Stat(wantCell); err != nil {
		t.Errorf("cell entry not at domain-derived path %s: %v", wantCell, err)
	}
}
