package simd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
)

// Durable job journal.
//
// The journal is the daemon's crash-safety layer: an append-only,
// CRC-framed write-ahead log under the cache root recording job
// submission envelopes and terminal states. On startup the daemon
// replays the journal, re-enqueues every job that never reached a
// terminal record, and serves the recovered results byte-identical to
// an uninterrupted run: cells the crashed run completed hit the
// content-addressed result cache, the remainder are resimulated, and
// the aggregation tail is deterministic in cell content.
//
// Decoding is defensive in exactly the cache's spirit: a torn or
// bit-flipped tail ends that segment's replay — truncated, counted,
// never fatal — and a record is either fully applied or not at all (a
// CRC-valid submit whose envelope later fails to parse skips the whole
// job, never half of one).
//
// Layout: <cacheRoot>/mobisim/journal/v1/<seq>.wal, segments replayed
// in sequence order. Opening the journal compacts: the live jobs of
// the replay are rewritten into a fresh segment (temp file + fsync +
// rename, so a crash mid-compaction leaves the old segments intact)
// and the old segments are removed.
//
// Durability policy: every record is fsynced. A job costs two records,
// its submission and its terminal state; completed cells are recorded
// only by the result cache, so the journal is never written per cell.
const (
	journalMagic   = "simd-journal/1\n"
	journalSubdir  = "mobisim/journal/v1"
	maxJournalRec  = 16 << 20 // a frame longer than this is corrupt, not allocatable
	journalPerm    = 0o644
	journalDirPerm = 0o755
)

// Journal record types.
const (
	recSubmit = "submit"
	recEnd    = "end"
)

// journalRecord is one WAL entry's JSON payload.
type journalRecord struct {
	Type string `json:"t"`
	Job  string `json:"job"`
	// Submit fields.
	Hash     string          `json:"hash,omitempty"` // %016x envelope hash
	Envelope json.RawMessage `json:"envelope,omitempty"`
	// End fields.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// RecoveredJob is one journaled job that never reached a terminal
// record: candidate for re-enqueue on startup.
type RecoveredJob struct {
	// ID is the original job id (recovered jobs keep it, so clients
	// polling a pre-crash id find their job again).
	ID string
	// Hash is the submission envelope's content hash.
	Hash uint64
	// Envelope is the original POST /v1/jobs body.
	Envelope []byte
}

// JournalStats snapshots the journal counters for /v1/stats.
type JournalStats struct {
	// Enabled is false for memory-only daemons and after a demotion.
	Enabled bool `json:"enabled"`
	// ReplaySegments, ReplayRecords: what startup replay consumed.
	ReplaySegments int `json:"replay_segments"`
	ReplayRecords  int `json:"replay_records"`
	// TruncatedRecords counts torn/corrupt frames dropped at replay.
	TruncatedRecords int `json:"truncated_records"`
	// OrphanRecords counts CRC-valid records referencing unknown jobs,
	// carrying unparseable envelopes, or of an unknown type (such as
	// the per-cell "cell" records older daemons wrote).
	OrphanRecords int `json:"orphan_records"`
	// RecoveredJobs counts jobs re-enqueued by the last replay.
	RecoveredJobs int `json:"recovered_jobs"`
	// Appends and AppendErrors count post-replay writes.
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
}

// Journal is the durable job WAL. All methods are safe for concurrent
// use. A nil *Journal is a valid disabled journal: every method
// no-ops, so memory-only daemons carry no journal branches.
type Journal struct {
	fs  faultfs.FS
	dir string

	mu       sync.Mutex
	f        faultfs.File
	seq      uint64
	disabled bool

	appends    atomic.Uint64
	appendErrs atomic.Uint64
	replay     JournalStats // replay-time counters, fixed after open
}

// JournalDir maps a cache root to its journal directory.
func JournalDir(cacheRoot string) string {
	return filepath.Join(cacheRoot, filepath.FromSlash(journalSubdir))
}

// EnvelopeHash is the idempotency key of a job submission: FNV-1a 64
// over the raw envelope bytes. Clients resubmitting after a daemon
// crash present it so the daemon can attach them to the recovered job
// instead of running a duplicate.
func EnvelopeHash(envelope []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(envelope)
	return h.Sum64()
}

// OpenJournal opens (creating if needed) the journal under dir,
// replays every segment, compacts the live jobs into a fresh segment,
// and returns the journal plus the jobs to recover. fsys nil means the
// real OS filesystem.
//
// Replay is deterministic: the same segment bytes always yield the
// same recovered set. I/O errors opening or compacting are returned so
// the caller can demote to memory-only; corrupt content never is.
func OpenJournal(fsys faultfs.FS, dir string) (*Journal, []RecoveredJob, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if err := fsys.MkdirAll(dir, journalDirPerm); err != nil {
		return nil, nil, fmt.Errorf("simd: journal dir: %w", err)
	}
	j := &Journal{fs: fsys, dir: dir}
	j.replay.Enabled = true

	segs, err := j.segments()
	if err != nil {
		return nil, nil, fmt.Errorf("simd: journal scan: %w", err)
	}
	recovered := j.replaySegments(segs)
	j.replay.RecoveredJobs = len(recovered)

	if err := j.compact(segs, recovered); err != nil {
		return nil, nil, fmt.Errorf("simd: journal compact: %w", err)
	}
	return j, recovered, nil
}

// segments lists the journal's segment files in sequence order and
// advances j.seq past the highest.
func (j *Journal) segments() ([]string, error) {
	entries, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "%016x.wal", &seq); err != nil {
			continue // foreign file; never touched
		}
		if seq > j.seq {
			j.seq = seq
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (j *Journal) segPath(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("%016x.wal", seq))
}

// replaySegments folds every segment into the recovered-job set.
// Unreadable segments count as fully truncated; nothing here is fatal.
func (j *Journal) replaySegments(segs []string) []RecoveredJob {
	type jobState struct {
		rec      RecoveredJob
		terminal bool
		order    int
	}
	jobs := make(map[string]*jobState)
	order := 0
	for _, name := range segs {
		j.replay.ReplaySegments++
		data, err := j.fs.ReadFile(filepath.Join(j.dir, name))
		if err != nil {
			j.replay.TruncatedRecords++
			continue
		}
		recs, truncated := decodeJournal(data)
		j.replay.ReplayRecords += len(recs)
		j.replay.TruncatedRecords += truncated
		for _, r := range recs {
			switch r.Type {
			case recSubmit:
				var hash uint64
				if _, err := fmt.Sscanf(r.Hash, "%016x", &hash); err != nil || r.Job == "" || len(r.Envelope) == 0 {
					j.replay.OrphanRecords++
					continue
				}
				// The hash is derived state: verify it against the
				// envelope rather than trust it, so an inconsistent
				// record is dropped whole, never half-applied.
				if hash != EnvelopeHash(r.Envelope) {
					j.replay.OrphanRecords++
					continue
				}
				// A duplicate submit for a live id restarts that job's
				// state (latest submit wins, mirroring append order).
				jobs[r.Job] = &jobState{
					rec: RecoveredJob{
						ID:       r.Job,
						Hash:     hash,
						Envelope: append([]byte(nil), r.Envelope...),
					},
					order: order,
				}
				order++
			case recEnd:
				st, ok := jobs[r.Job]
				if !ok {
					j.replay.OrphanRecords++
					continue
				}
				st.terminal = true
			default:
				j.replay.OrphanRecords++
			}
		}
	}
	var live []*jobState
	for _, st := range jobs {
		if !st.terminal {
			live = append(live, st)
		}
	}
	// Submission order, not map order: recovery re-enqueues the way the
	// crashed daemon admitted.
	sort.Slice(live, func(a, b int) bool { return live[a].order < live[b].order })
	out := make([]RecoveredJob, len(live))
	for i, st := range live {
		out[i] = st.rec
	}
	return out
}

// decodeJournal strictly parses one segment: magic, then CRC-framed
// records until the bytes end or stop parsing. truncated counts the
// torn/corrupt tail (at most 1 per segment: everything after the first
// bad frame is untrusted and dropped).
func decodeJournal(data []byte) (recs []journalRecord, truncated int) {
	rest, ok := strings.CutPrefix(string(data), journalMagic)
	if !ok {
		if len(data) > 0 {
			truncated++
		}
		return nil, truncated
	}
	b := []byte(rest)
	for len(b) > 0 {
		if len(b) < 8 {
			truncated++
			return recs, truncated
		}
		n := binary.LittleEndian.Uint32(b)
		sum := binary.LittleEndian.Uint32(b[4:])
		if n == 0 || n > maxJournalRec || uint64(len(b)) < 8+uint64(n) {
			truncated++
			return recs, truncated
		}
		payload := b[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			truncated++
			return recs, truncated
		}
		var r journalRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			truncated++
			return recs, truncated
		}
		recs = append(recs, r)
		b = b[8+n:]
	}
	return recs, truncated
}

// encodeRecord frames one record: length, CRC32 (IEEE) of the payload,
// payload.
func encodeRecord(r journalRecord) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 8+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// compact rewrites the live jobs into a fresh segment (atomically:
// temp + fsync + rename) then removes the replayed segments. The
// journal's append handle points at the fresh segment afterwards.
func (j *Journal) compact(oldSegs []string, live []RecoveredJob) error {
	j.seq++
	path := j.segPath(j.seq)

	tmp, err := j.fs.CreateTemp(j.dir, ".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func() { tmp.Close(); _ = j.fs.Remove(tmp.Name()) }
	body := []byte(journalMagic)
	for _, rj := range live {
		frame, err := encodeRecord(journalRecord{
			Type: recSubmit, Job: rj.ID,
			Hash: fmt.Sprintf("%016x", rj.Hash), Envelope: rj.Envelope,
		})
		if err != nil {
			cleanup()
			return err
		}
		body = append(body, frame...)
	}
	if _, err := tmp.Write(body); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = j.fs.Remove(tmp.Name())
		return err
	}
	if err := j.fs.Chmod(tmp.Name(), journalPerm); err != nil {
		_ = j.fs.Remove(tmp.Name())
		return err
	}
	if err := j.fs.Rename(tmp.Name(), path); err != nil {
		_ = j.fs.Remove(tmp.Name())
		return err
	}
	// Old segments only go away after the compacted one is durable; a
	// remove failure leaves harmless duplicates for the next replay.
	for _, name := range oldSegs {
		_ = j.fs.Remove(filepath.Join(j.dir, name))
	}
	f, err := j.fs.OpenAppend(path, journalPerm)
	if err != nil {
		return err
	}
	j.f = f
	return nil
}

// append frames, writes and fsyncs one record. Errors are counted and
// returned; the caller decides whether to demote.
func (j *Journal) append(r journalRecord) error {
	if j == nil {
		return nil
	}
	frame, err := encodeRecord(r)
	if err != nil {
		j.appendErrs.Add(1)
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.disabled || j.f == nil {
		return nil
	}
	if _, err := j.f.Write(frame); err != nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("simd: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.appendErrs.Add(1)
		return fmt.Errorf("simd: journal sync: %w", err)
	}
	j.appends.Add(1)
	return nil
}

// AppendSubmit durably records an admitted job and its envelope. The
// envelope must be compacted JSON (json.Compact): the record's JSON
// framing compacts nested raw messages, and replay verifies hash
// against the envelope bytes as stored — whitespace would orphan the
// record.
func (j *Journal) AppendSubmit(jobID string, hash uint64, envelope []byte) error {
	return j.append(journalRecord{
		Type: recSubmit, Job: jobID,
		Hash: fmt.Sprintf("%016x", hash), Envelope: envelope,
	})
}

// AppendEnd durably records a job's terminal state.
func (j *Journal) AppendEnd(jobID string, state JobState, errMsg string) error {
	return j.append(journalRecord{Type: recEnd, Job: jobID, State: string(state), Error: errMsg})
}

// Disable stops all journaling (the degraded-mode demotion). The open
// segment handle is closed; appends become no-ops.
func (j *Journal) Disable() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.disabled {
		return
	}
	j.disabled = true
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
}

// Close flushes and closes the active segment.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := errors.Join(j.f.Sync(), j.f.Close())
	j.f = nil
	return err
}

// Stats snapshots the journal counters. Safe on a nil journal (the
// memory-only daemon): everything zero, Enabled false.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	st := j.replay
	st.Enabled = !j.disabled
	j.mu.Unlock()
	st.Appends = j.appends.Load()
	st.AppendErrors = j.appendErrs.Load()
	return st
}
