package simd

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/pkg/mobisim"
)

// Config parameterizes a Server. The zero value is usable.
type Config struct {
	// QueueCap bounds the pending-job queue (default 16). A full queue
	// answers 429 with Retry-After.
	QueueCap int
	// JobWorkers is how many jobs execute concurrently (default 2).
	JobWorkers int
	// CellWorkers is the per-job cell concurrency (default 0 =
	// GOMAXPROCS).
	CellWorkers int
	// BatchWidth is the lane width of the lockstep units each job's
	// cache-miss cells run in; 0 lets the planner choose (for
	// CellWorkers, or without them for the job's share of GOMAXPROCS
	// among the jobs running at once), 1 steps every engine alone, and
	// a negative width fails NewServer with
	// mobisim.ErrNegativeBatchWidth. Responses are byte-identical at
	// every width — the width is a throughput knob.
	BatchWidth int
	// CacheDir roots the on-disk result cache; empty keeps the cache
	// memory-only.
	CacheDir string
	// MemCacheCap bounds the in-memory cache tier (default
	// DefaultMemCacheCap).
	MemCacheCap int
	// MaxBodyBytes bounds job-submission bodies (default 1 MiB).
	MaxBodyBytes int64
	// FS is the filesystem seam under the cache and journal (nil = the
	// real OS). Chaos tests pass a faultfs.Injector.
	FS faultfs.FS
	// Logf, when set, receives one line per job transition.
	Logf func(format string, args ...any)
}

// Server is the sweep-as-a-service daemon core: an http.Handler for
// the /v1 API plus the queue, workers, scheduler and cache behind it.
// Construct with NewServer, call Start to launch the workers, and
// Shutdown to drain.
type Server struct {
	cfg     Config
	cache   *Cache
	sched   *Scheduler
	queue   *Queue
	journal *Journal // nil when memory-only
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	startedAt  time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	byHash   map[uint64]string // envelope hash → job id (idempotent resubmission)
	draining bool
	started  bool
	wg       sync.WaitGroup

	// degraded flips once when durable state becomes unusable; the
	// daemon keeps serving memory-only (the degradation policy: never
	// fail a request over a bad disk).
	degraded    atomic.Bool
	degradedMu  sync.Mutex
	degradedWhy []string

	// killed marks a simulated crash (Kill, in the tests): terminal journal
	// records are suppressed so recovery sees the job as interrupted.
	killed atomic.Bool

	recoveredJobs    int
	recoveredSkipped int

	cellsDone atomic.Uint64
}

// NewServer builds a server (cache opened, journal replayed, workers
// not yet started). An unwritable or corrupt cache/journal directory
// does not fail construction: the daemon demotes itself to memory-only
// and reports the demotion through /healthz and /v1/stats — the only
// error is an invalid Config (a negative BatchWidth).
func NewServer(cfg Config) (*Server, error) {
	if cfg.BatchWidth < 0 {
		return nil, mobisim.ErrNegativeBatchWidth
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		startedAt:  time.Now(),
		jobs:       make(map[string]*Job),
		byHash:     make(map[uint64]string),
	}

	cache, err := NewCacheFS(cfg.FS, cfg.CacheDir, cfg.MemCacheCap)
	if err != nil {
		s.degrade(fmt.Sprintf("cache dir unusable, running memory-only: %v", err))
		cache, _ = NewCacheFS(cfg.FS, "", cfg.MemCacheCap) // memory-only cannot fail
	}
	s.cache = cache
	s.sched = NewScheduler(ctx, cache)

	// The journal lives under the cache root; a memory-only cache (by
	// request or by demotion) runs journal-less.
	var recovered []RecoveredJob
	if cache.Dir() != "" {
		j, rec, jerr := OpenJournal(cfg.FS, JournalDir(cache.Dir()))
		if jerr != nil {
			s.degrade(fmt.Sprintf("journal unusable, crash recovery off: %v", jerr))
		} else {
			s.journal = j
			recovered = rec
		}
	}

	// Re-parse the recovered envelopes through the strict submission
	// parser: what replays is exactly what was admitted. An envelope the
	// current build rejects (schema drift) is skipped and marked
	// terminal so it never resurrects again.
	type recoveredJob struct {
		rj   RecoveredJob
		spec *JobSpec
	}
	var live []recoveredJob
	for _, rj := range recovered {
		spec, perr := ParseJobRequest(rj.Envelope)
		if perr != nil {
			s.recoveredSkipped++
			s.logf("job %s: recovered envelope rejected, dropping: %v", rj.ID, perr)
			_ = s.journal.AppendEnd(rj.ID, JobFailed, perr.Error())
			continue
		}
		live = append(live, recoveredJob{rj: rj, spec: spec})
	}

	// Recovery may hold more jobs than the configured admission cap;
	// the queue is sized to fit them all so no recovered job is lost.
	queueCap := cfg.QueueCap
	if len(live) > queueCap {
		queueCap = len(live)
	}
	s.queue = NewQueue(queueCap)
	for _, r := range live {
		job := NewJob(r.rj.ID, r.spec, s.baseCtx)
		s.jobs[job.ID] = job
		s.byHash[r.rj.Hash] = job.ID
		if qerr := s.queue.Enqueue(job); qerr != nil {
			job.Cancel()
			continue
		}
		s.recoveredJobs++
		s.publishJobStatus(job)
		s.logf("job %s: recovered from journal (%d cells; completed ones come back from the result cache)",
			job.ID, len(r.spec.Cells))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobPath)
	s.mux = mux
	return s, nil
}

// degrade records a durable-state demotion. The daemon keeps serving;
// the flag is visible in /healthz and the reasons in /v1/stats.
func (s *Server) degrade(reason string) {
	s.degradedMu.Lock()
	s.degradedWhy = append(s.degradedWhy, reason)
	s.degradedMu.Unlock()
	s.degraded.Store(true)
	s.logf("daemon degraded: %s", reason)
}

// Degraded reports whether durable state has been demoted.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// DegradedReasons snapshots the demotion history.
func (s *Server) DegradedReasons() []string {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return append([]string(nil), s.degradedWhy...)
}

// demoteJournal turns a journal write failure into a demotion: the
// journal is disabled (recovery is lost, requests are not) and the
// daemon flags itself degraded. No-op under a simulated crash.
func (s *Server) demoteJournal(err error) {
	if err == nil || s.killed.Load() {
		return
	}
	s.journal.Disable()
	s.degrade(fmt.Sprintf("journal write failed, journaling off: %v", err))
}

// Recovered reports how many journaled jobs the last startup re-enqueued.
func (s *Server) Recovered() int { return s.recoveredJobs }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Start launches the job workers. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				job, ok := s.queue.Dequeue(s.baseCtx)
				if !ok {
					return
				}
				s.runJob(job)
			}
		}()
	}
}

// Shutdown drains the daemon: admission stops (new submissions get
// 503), queued and running jobs run to completion, then the workers
// exit. If ctx expires first, every remaining job is hard-canceled and
// ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.mu.Unlock()
	s.queue.Close()
	if !started {
		s.baseCancel()
		s.cancelQueued()
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	// Anything still sitting in the queue (hard-cancel path) is
	// terminally canceled so status readers don't see "queued" forever.
	// Their journal records stay non-terminal on purpose: a job the
	// daemon never served is re-run on the next start.
	s.cancelQueued()
	s.baseCancel()
	if cerr := s.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// cancelQueued drains and cancels jobs the workers never picked up.
func (s *Server) cancelQueued() {
	for {
		job, ok := s.queue.TryDequeue()
		if !ok {
			return
		}
		job.Cancel()
	}
}

// logf logs one line when configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// runJob executes one job's cells through the scheduler and stores the
// encoded result body.
func (s *Server) runJob(job *Job) {
	if !job.Start() {
		return
	}
	s.publishJobStatus(job)
	s.logf("job %s: running (%d cells)", job.ID, len(job.Spec.Cells))

	onCell := func(i int, origin Origin, metrics map[string]float64) {
		job.CellDone(origin)
		s.cellsDone.Add(1)
		if data, err := marshalCellEvent(i, job.Spec.Cells[i].Key, origin, metrics); err == nil {
			job.Broker.Publish("cell", data, true)
		}
	}
	var tapFor func(i int) SampleFunc
	if job.Spec.StreamSamples {
		tapFor = func(i int) SampleFunc {
			return func(smp Sample) {
				if data, err := marshalSampleEvent(i, smp); err == nil {
					job.Broker.Publish("sample", data, false)
				}
			}
		}
	}
	metrics, stats, err := s.sched.RunCells(job.Context(), job.Spec.Cells, s.cfg.BatchWidth, s.cfg.CellWorkers, onCell, tapFor)
	if err != nil {
		job.Fail(err)
		s.journalEnd(job)
		s.logf("job %s: %s: %v", job.ID, job.State(), err)
		return
	}
	out, err := mobisim.AggregateCells(job.Spec.Cells, metrics, job.Spec.IncludeRaw)
	if err != nil {
		job.Fail(err)
		s.journalEnd(job)
		return
	}
	var buf bytes.Buffer
	if err := out.EncodeJSON(&buf); err != nil {
		job.Fail(err)
		s.journalEnd(job)
		return
	}
	job.Finish(buf.Bytes())
	s.journalEnd(job)
	s.logf("job %s: done (%d cells: %d hit, %d computed, %d deduped)",
		job.ID, stats.Total, stats.CacheHits(), stats.Computed(), stats.Deduped())
}

// journalEnd durably records a job's terminal state. Suppressed under a
// simulated crash so recovery sees the job as interrupted — exactly
// what a real crash would have left behind.
func (s *Server) journalEnd(job *Job) {
	if s.killed.Load() {
		return
	}
	st := job.Status()
	if jerr := s.journal.AppendEnd(job.ID, st.State, st.Error); jerr != nil {
		s.demoteJournal(jerr)
	}
}

// publishJobStatus emits a retained "job" lifecycle event.
func (s *Server) publishJobStatus(job *Job) {
	if data, err := json.Marshal(job.Status()); err == nil {
		job.Broker.Publish("job", data, true)
	}
}

// newJobID mints a collision-resistant job id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("j-%d", time.Now().UnixNano())
	}
	return "j-" + hex.EncodeToString(b[:])
}

// --- HTTP handlers ---

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// Health is the GET /healthz body. Status carries liveness (ok or
// draining, mirrored in the HTTP status); Degraded carries durability:
// a degraded daemon still answers every request but has lost its disk
// cache or journal and says so here instead of failing submissions.
type Health struct {
	Status   string   `json:"status"`
	Degraded bool     `json:"degraded"`
	Reasons  []string `json:"reasons,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{Status: "ok", Degraded: s.degraded.Load()}
	if h.Degraded {
		h.Reasons = s.DegradedReasons()
	}
	status := http.StatusOK
	if draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Stats is the GET /v1/stats body.
type Stats struct {
	UptimeS         float64  `json:"uptime_s"`
	Draining        bool     `json:"draining"`
	Degraded        bool     `json:"degraded"`
	DegradedReasons []string `json:"degraded_reasons,omitempty"`
	Queue           struct {
		Depth int `json:"depth"`
		Cap   int `json:"cap"`
	} `json:"queue"`
	Jobs  map[JobState]int `json:"jobs"`
	Cache struct {
		CacheStats
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	Journal   JournalStats `json:"journal"`
	Recovered struct {
		Jobs    int `json:"jobs"`
		Skipped int `json:"skipped"`
	} `json:"recovered"`
	Scheduler SchedulerStats `json:"scheduler"`
	Cells     struct {
		Completed uint64  `json:"completed"`
		PerSec    float64 `json:"per_sec"`
	} `json:"cells"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var st Stats
	uptime := time.Since(s.startedAt).Seconds()
	st.UptimeS = uptime
	st.Queue.Depth = s.queue.Depth()
	st.Queue.Cap = s.queue.Cap()
	st.Jobs = map[JobState]int{JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0, JobCanceled: 0}
	s.mu.Lock()
	st.Draining = s.draining
	for _, j := range s.jobs {
		st.Jobs[j.State()]++
	}
	s.mu.Unlock()
	st.Degraded = s.degraded.Load()
	if st.Degraded {
		st.DegradedReasons = s.DegradedReasons()
	}
	st.Cache.CacheStats = s.cache.Stats()
	st.Cache.HitRate = st.Cache.CacheStats.HitRate()
	st.Journal = s.journal.Stats()
	st.Recovered.Jobs = s.recoveredJobs
	st.Recovered.Skipped = s.recoveredSkipped
	st.Scheduler = s.sched.Stats()
	st.Cells.Completed = s.cellsDone.Load()
	if uptime > 0 {
		st.Cells.PerSec = float64(st.Cells.Completed) / uptime
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobs serves POST /v1/jobs (submission).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/jobs" {
		writeError(w, http.StatusNotFound, "not found")
		return
	}
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	// MaxBytesReader (not a bare LimitReader) so the connection is
	// poisoned against further reads the moment the limit trips — an
	// oversized envelope costs at most MaxBodyBytes of ingest.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "simd: job request: %v", err)
		return
	}
	spec, err := ParseJobRequest(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Canonicalize the envelope to compacted JSON: the journal's JSON
	// framing compacts nested raw messages, so only compaction-stable
	// bytes survive a journal round-trip with their hash intact.
	var canon bytes.Buffer
	if err := json.Compact(&canon, raw); err != nil {
		writeError(w, http.StatusBadRequest, "simd: job request: %v", err)
		return
	}
	envelope := canon.Bytes()

	// A client that sends an Idempotency-Key opts into envelope-hash
	// deduplication: resubmitting the same body attaches to the live
	// (or recovered) job instead of running a duplicate. Failed and
	// canceled jobs don't count — a retry after failure runs fresh.
	hash := EnvelopeHash(envelope)
	idempotent := r.Header.Get("Idempotency-Key") != ""
	if idempotent {
		s.mu.Lock()
		if id, ok := s.byHash[hash]; ok {
			if prior := s.jobs[id]; prior != nil {
				if st := prior.State(); st != JobFailed && st != JobCanceled {
					s.mu.Unlock()
					s.logf("job %s: idempotent resubmission attached (hash %016x)", prior.ID, hash)
					w.Header().Set("Location", "/v1/jobs/"+prior.ID)
					writeJSON(w, http.StatusOK, prior.Status())
					return
				}
			}
		}
		s.mu.Unlock()
	}

	job := NewJob(newJobID(), spec, s.baseCtx)
	s.mu.Lock()
	s.jobs[job.ID] = job
	if idempotent {
		s.byHash[hash] = job.ID
	}
	s.mu.Unlock()
	// Journal the submission before enqueueing so the WAL never holds
	// an end record for a job it has no envelope for.
	if jerr := s.journal.AppendSubmit(job.ID, hash, envelope); jerr != nil {
		s.demoteJournal(jerr)
	}
	if err := s.queue.Enqueue(job); err != nil {
		s.mu.Lock()
		delete(s.jobs, job.ID)
		if idempotent && s.byHash[hash] == job.ID {
			delete(s.byHash, hash)
		}
		s.mu.Unlock()
		job.cancel()
		if jerr := s.journal.AppendEnd(job.ID, JobCanceled, "never enqueued"); jerr != nil {
			s.demoteJournal(jerr)
		}
		if err == ErrQueueFull {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "job queue full (%d pending)", s.queue.Cap())
			return
		}
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	s.publishJobStatus(job)
	s.logf("job %s: queued (%d cells)", job.ID, len(spec.Cells))
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleJobPath routes /v1/jobs/{id}[/events|/result]. Hand-rolled
// because the module targets Go 1.21, before ServeMux method and
// wildcard patterns.
func (s *Server) handleJobPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	parts := strings.Split(rest, "/")
	id := parts[0]
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if id == "" || !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch {
	case len(parts) == 1:
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, job.Status())
		case http.MethodDelete:
			job.Cancel()
			// A queued job is terminal right away; journal it so
			// recovery doesn't resurrect a job the client killed. (A
			// running one reaches its end record through runJob.)
			if job.State() == JobCanceled {
				s.journalEnd(job)
			}
			s.logf("job %s: cancel requested", job.ID)
			writeJSON(w, http.StatusAccepted, job.Status())
		default:
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	case len(parts) == 2 && parts[1] == "result":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		s.handleResult(w, job)
	case len(parts) == 2 && parts[1] == "events":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
			return
		}
		s.handleEvents(w, r, job)
	default:
		writeError(w, http.StatusNotFound, "not found")
	}
}

// handleResult serves the stored result body byte-for-byte — the
// byte-identity invariant lives or dies here, so the body is written
// exactly as encoded at completion, never re-marshaled.
func (s *Server) handleResult(w http.ResponseWriter, job *Job) {
	result, state := job.Result()
	switch state {
	case JobDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(result)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case JobFailed, JobCanceled:
		writeJSON(w, http.StatusConflict, job.Status())
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, job.Status())
	}
}

// handleEvents streams the job's SSE feed: full replay of retained
// lifecycle events (resumable via Last-Event-ID), then live events
// until the job ends or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	lastID := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			lastID = n
		}
	}
	replay, ch, cancel := job.Broker.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	var buf bytes.Buffer
	for _, ev := range replay {
		if ev.ID <= lastID {
			continue
		}
		buf.Reset()
		ev.WriteTo(&buf)
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if ev.ID <= lastID {
				continue
			}
			buf.Reset()
			ev.WriteTo(&buf)
			if _, err := w.Write(buf.Bytes()); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
