package simd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faultfs"
)

// journalSegBytes reads the single live segment of a journal dir.
func journalSegBytes(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, have %v", segs)
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// recoveredIDs projects a recovery set to its job ids, in order.
func recoveredIDs(recovered []RecoveredJob) []string {
	ids := make([]string, len(recovered))
	for i, r := range recovered {
		ids[i] = r.ID
	}
	return ids
}

// TestJournalEmptyOpen pins the fresh-directory path: no recovered
// jobs, one compacted segment ready for appends.
func TestJournalEmptyOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, recovered, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(recovered))
	}
	_, data := journalSegBytes(t, dir)
	if string(data) != journalMagic {
		t.Fatalf("fresh segment bytes %q, want bare magic", data)
	}
	st := j.Stats()
	if !st.Enabled || st.RecoveredJobs != 0 {
		t.Fatalf("stats after fresh open: %+v", st)
	}
}

// TestJournalRecoversIncompleteJob pins the core recovery contract: a
// submitted job without a terminal record comes back with its
// envelope; a terminal job does not come back. A per-cell record an
// older daemon left in the log is an orphan, not an error.
func TestJournalRecoversIncompleteJob(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	envA := []byte(`{"matrix":{"a":1}}`)
	envB := []byte(`{"matrix":{"b":2}}`)
	if err := j.AppendSubmit("job-a", EnvelopeHash(envA), envA); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit("job-b", EnvelopeHash(envB), envB); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEnd("job-b", JobDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := journalSegBytes(t, dir)
	legacy := []byte(`{"t":"cell","job":"job-a","index":2,"key":"000000000000beef"}`)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(legacy)))
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(legacy))
	if err := os.WriteFile(path, append(data, legacy...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recovered, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := recoveredIDs(recovered); !reflect.DeepEqual(got, []string{"job-a"}) {
		t.Fatalf("recovered %v, want [job-a]", got)
	}
	rj := recovered[0]
	if rj.Hash != EnvelopeHash(envA) {
		t.Errorf("recovered hash %x, want %x", rj.Hash, EnvelopeHash(envA))
	}
	if !bytes.Equal(rj.Envelope, envA) {
		t.Errorf("recovered envelope %q, want %q", rj.Envelope, envA)
	}
	if st := j2.Stats(); st.RecoveredJobs != 1 || st.TruncatedRecords != 0 || st.OrphanRecords != 1 {
		t.Errorf("stats after clean recovery: %+v", st)
	}
}

// TestJournalTornTail pins torn-tail handling: a segment ending in a
// partial frame replays every whole record, counts exactly one
// truncation, and never errors.
func TestJournalTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	env := []byte(`{"matrix":{"a":1}}`)
	if err := j.AppendSubmit("job-a", EnvelopeHash(env), env); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit("job-b", EnvelopeHash(env), env); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	path, data := journalSegBytes(t, dir)
	// A torn append: half a frame header, then power loss.
	if err := os.WriteFile(path, append(data, 0xff, 0xff, 0x03), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recovered, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer j2.Close()
	if got := recoveredIDs(recovered); !reflect.DeepEqual(got, []string{"job-a", "job-b"}) {
		t.Fatalf("recovered %v, want [job-a job-b]", got)
	}
	if st := j2.Stats(); st.TruncatedRecords != 1 {
		t.Errorf("truncated records %d, want 1", st.TruncatedRecords)
	}
}

// TestJournalCorruptRecordStopsSegment pins bit-flip handling: a CRC
// mismatch mid-segment drops that record and everything after it.
func TestJournalCorruptRecordStopsSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	envA := []byte(`{"matrix":{"a":1}}`)
	envB := []byte(`{"matrix":{"b":2}}`)
	if err := j.AppendSubmit("job-a", EnvelopeHash(envA), envA); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := journalSegBytes(t, dir)
	flipAt := len(journalMagic) + 8 + 2 // inside job-a's payload
	data[flipAt] ^= 0x40
	// A later, intact record after the corrupt one must still be
	// dropped: everything past the first bad frame is untrusted.
	frame, err := encodeRecord(journalRecord{
		Type: recSubmit, Job: "job-b",
		Hash: fmt.Sprintf("%016x", EnvelopeHash(envB)), Envelope: envB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, frame...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recovered, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered %v past a corrupt record", recoveredIDs(recovered))
	}
	if st := j2.Stats(); st.TruncatedRecords != 1 {
		t.Errorf("truncated records %d, want 1", st.TruncatedRecords)
	}
}

// TestJournalCompaction pins that reopening drops terminal jobs from
// disk and carries live ones: after open-with-recovery, a third open
// sees the same live set from the compacted segment alone.
func TestJournalCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		env := []byte(fmt.Sprintf(`{"matrix":{"i":%d}}`, i))
		id := fmt.Sprintf("job-%d", i)
		if err := j.AppendSubmit(id, EnvelopeHash(env), env); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendEnd("job-1", JobDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recovered, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recoveredIDs(recovered); !reflect.DeepEqual(got, []string{"job-0", "job-2"}) {
		t.Fatalf("recovered %v, want [job-0 job-2] in submission order", got)
	}

	// The compacted segment alone must reproduce the live set.
	j3, recovered3, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := recoveredIDs(recovered3); !reflect.DeepEqual(got, []string{"job-0", "job-2"}) {
		t.Fatalf("post-compaction recovery %v, want [job-0 job-2]", got)
	}
	if st := j3.Stats(); st.ReplaySegments != 1 {
		t.Errorf("segments after compaction: %d, want 1", st.ReplaySegments)
	}
}

// TestJournalDisable pins the demotion path: after Disable, appends
// no-op without error and stats report the journal off.
func TestJournalDisable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, _, err := OpenJournal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Disable()
	if err := j.AppendSubmit("job-a", 1, []byte(`{}`)); err != nil {
		t.Fatalf("append after disable: %v", err)
	}
	if st := j.Stats(); st.Enabled || st.Appends != 0 {
		t.Errorf("stats after disable: %+v", st)
	}
	var nilJ *Journal
	if err := nilJ.AppendEnd("x", JobDone, ""); err != nil {
		t.Fatalf("nil journal append: %v", err)
	}
	if st := nilJ.Stats(); st.Enabled {
		t.Error("nil journal reports enabled")
	}
}

// TestJournalAppendErrorSurfaces pins that an injected write failure
// is returned (the server's demotion trigger) and counted.
func TestJournalAppendErrorSurfaces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	inj := faultfs.NewInjector(nil).Add(faultfs.Rule{Op: faultfs.OpWrite, PathContains: ".wal", Count: 1})
	j, _, err := OpenJournal(inj, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendSubmit("job-a", 1, []byte(`{}`)); !faultfs.IsInjected(err) {
		t.Fatalf("append under injected write fault: %v, want injected error", err)
	}
	if st := j.Stats(); st.AppendErrors != 1 {
		t.Errorf("append errors %d, want 1", st.AppendErrors)
	}
	// The script is exhausted: the journal keeps working.
	if err := j.AppendSubmit("job-a", 1, []byte(`{}`)); err != nil {
		t.Fatalf("append after fault script exhausted: %v", err)
	}
}

// FuzzJournalReplay feeds arbitrary bytes through segment replay:
// it must never panic, never recover a partially-applied job (every
// recovered job carries a parseable frame-complete envelope and id),
// and must be deterministic for the same bytes.
func FuzzJournalReplay(f *testing.F) {
	// Seed 1: a well-formed segment with a live and a terminal job.
	var seed []byte
	{
		dir := filepath.Join(f.TempDir(), "journal")
		j, _, err := OpenJournal(nil, dir)
		if err != nil {
			f.Fatal(err)
		}
		env := []byte(`{"matrix":{"a":1}}`)
		_ = j.AppendSubmit("job-a", EnvelopeHash(env), env)
		_ = j.AppendSubmit("job-b", EnvelopeHash(env), env)
		_ = j.AppendEnd("job-b", JobDone, "")
		_ = j.Close()
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			f.Fatalf("seed segment: %v", err)
		}
		seed, err = os.ReadFile(filepath.Join(dir, entries[0].Name()))
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])      // torn tail
	f.Add([]byte(journalMagic))    // bare header
	f.Add([]byte("not a journal")) // foreign bytes
	f.Add([]byte{})                // empty file
	flipped := append([]byte(nil), seed...)
	flipped[len(journalMagic)+9] ^= 0x10 // bit flip inside a payload
	f.Add(flipped)
	// A frame whose declared length overruns the buffer.
	over := append([]byte(nil), journalMagic...)
	over = binary.LittleEndian.AppendUint32(over, 1<<30)
	over = binary.LittleEndian.AppendUint32(over, crc32.ChecksumIEEE(nil))
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := decodeJournal(data)
		for _, r := range recs {
			if r.Type == "" {
				t.Fatal("decoded record with empty type")
			}
		}
		run := func() []RecoveredJob {
			dir := filepath.Join(t.TempDir(), "journal")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x.wal", 1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, recovered, err := OpenJournal(nil, dir)
			if err != nil {
				t.Fatalf("corrupt journal content must not fail open: %v", err)
			}
			defer j.Close()
			for _, rj := range recovered {
				if rj.ID == "" {
					t.Fatal("recovered job without id")
				}
				if len(rj.Envelope) == 0 {
					t.Fatal("recovered job without envelope")
				}
				if rj.Hash != EnvelopeHash(rj.Envelope) {
					t.Fatal("recovered job whose hash does not match its envelope")
				}
			}
			return recovered
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("replay nondeterministic: %d vs %d jobs", len(a), len(b))
		}
		sort.Slice(a, func(i, k int) bool { return a[i].ID < a[k].ID })
		sort.Slice(b, func(i, k int) bool { return b[i].ID < b[k].ID })
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Hash != b[i].Hash ||
				!bytes.Equal(a[i].Envelope, b[i].Envelope) {
				t.Fatalf("replay nondeterministic at job %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	})
}
