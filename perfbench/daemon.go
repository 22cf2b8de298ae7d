package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/simd"
	"repro/pkg/mobisim"
)

// daemon-mixed is a closed loop of nproc (at most two) clients driving
// an in-process simd.Server over HTTP. The server runs its batched
// executor over a temporary cache directory, so the journal and the
// disk tier are on. Each client submits small appaware matrix jobs from
// a seeded mix: fresh seeds (all misses: cache writes and warm forks),
// exact repeats of earlier jobs (all hits, from memory for recent jobs
// and from disk for old ones, since the memory tier holds fewer cells
// than a run computes), and pairs of jobs the two clients submit
// together that share half their cells (singleflight dedup plus partial
// hits). It is the only workload through HTTP/JSON, the queue, the
// journal fsync, both cache tiers and dedup, with reads and writes of
// one cache side by side.
//
// BENCHMARK.json does not list it: on a shared two-vCPU host its figures
// spread more between runs than the benchmark's bounds allow (across ten
// seeds of 25 s, cells_per_s, job_p50_ms and job_p90_ms had quartile
// spreads of 21%, 36% and 16% of their medians). It stays runnable by
// name, and the other workloads' traced runs still time the daemon
// through probeDaemon.

const (
	// daemonMemCacheCap holds far fewer cells than a run computes.
	daemonMemCacheCap = 256
	// traceWindowJobs is how many fresh jobs the traced run replays.
	traceWindowJobs = 3
)

type jobKind int

const (
	jobFresh jobKind = iota
	jobRepeat
	jobOverlap
)

// kindCycle is the job mix, repeated by every client in step: 12 fresh,
// 5 repeat and 3 overlap jobs in 20, in a fixed order so every run
// serves the same mix. Fresh jobs are the majority so that the latency
// quantiles fall inside the fresh jobs' spread rather than on the edge
// between the fast hit jobs and the slow computed ones.
var kindCycle = [...]jobKind{
	jobFresh, jobFresh, jobRepeat, jobOverlap, jobFresh,
	jobFresh, jobRepeat, jobFresh, jobFresh, jobFresh,
	jobOverlap, jobRepeat, jobFresh, jobFresh, jobRepeat,
	jobFresh, jobOverlap, jobFresh, jobRepeat, jobFresh,
}

// cycleStart is the step of kindCycle at which a cycle is timed from:
// its first overlap step, where both clients meet with no job in flight.
const cycleStart = 3

// daemonMatrix is one small appaware job: four limits, eight
// replicates. Thirty-two cells keep the journal's two fsyncs and the
// HTTP round trips a small share of a job, so the disk's latency swings
// do not decide the figures.
func daemonMatrix(platform string, baseSeed int64, limits []float64) mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{platform},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    limits,
		Replicates: 8,
		DurationS:  3,
		BaseSeed:   baseSeed,
	}
}

// platformAt alternates the two presets, so every run computes the same
// share of cells on each whatever its seed.
func platformAt(n int) string {
	return []string{mobisim.PlatformOdroidXU3, mobisim.PlatformNexus6P}[n%2]
}

// overlapMatrix is client c's job at overlap step k, the n-th overlap
// step: both clients take the same platform and draw the same seeds and
// six limits, and take four limits each, two of them shared.
func overlapMatrix(seed int64, k, n, c int) mobisim.Matrix {
	rng := rand.New(rand.NewSource(seed*104729 + int64(k)))
	plat := platformAt(n)
	limits := pickLimits(rng, 6)
	return daemonMatrix(plat, seed*1_000_003+int64(k)*7+5, append([]float64(nil), limits[2*c:2*c+4]...))
}

// jobRecord is one completed client request.
type jobRecord struct {
	kind    jobKind
	matrix  mobisim.Matrix
	key     string
	status  simd.JobStatus
	digest  [32]byte
	latency time.Duration
	// done is when the result body had been read.
	done time.Time
	err  error
}

// daemonEnv is one running in-process daemon and its client.
type daemonEnv struct {
	dir    string
	srv    *simd.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(b *bench, fsys faultfs.FS) (*daemonEnv, error) {
	dir, err := os.MkdirTemp("", "perfbench-simd-")
	if err != nil {
		return nil, err
	}
	srv, err := simd.NewServer(simd.Config{
		CacheDir:    dir,
		JobWorkers:  b.nproc,
		CellWorkers: b.nproc,
		BatchWidth:  batchWidth,
		MemCacheCap: daemonMemCacheCap,
		FS:          fsys,
	})
	if err == nil && srv.Degraded() {
		err = fmt.Errorf("daemon started degraded: %s", strings.Join(srv.DegradedReasons(), "; "))
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv)
	return &daemonEnv{dir: dir, srv: srv, ts: ts, client: ts.Client()}, nil
}

// close stops the listener, drains the daemon and removes its state.
func (d *daemonEnv) close() {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon shutdown:", err)
	}
	os.RemoveAll(d.dir)
}

// do submits one job, waits for its SSE end event and reads the result
// body, returning the final status, the body and the latency from the
// POST to the body fully read.
func (d *daemonEnv) do(ctx context.Context, payload []byte) (simd.JobStatus, []byte, time.Duration, error) {
	t0 := time.Now()
	var st simd.JobStatus
	if err := d.call(ctx, http.MethodPost, "/v1/jobs", payload, 0, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&st)
	}); err != nil {
		return st, nil, 0, fmt.Errorf("submit: %w", err)
	}
	id := st.ID
	st, err := d.waitEnd(ctx, id)
	if err != nil {
		return st, nil, 0, fmt.Errorf("job %s events: %w", id, err)
	}
	var result []byte
	if err := d.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, 0, func(body io.Reader) error {
		var err error
		result, err = io.ReadAll(body)
		return err
	}); err != nil {
		return st, nil, 0, fmt.Errorf("job %s result: %w", id, err)
	}
	return st, result, time.Since(t0), nil
}

// sseReconnects bounds how often waitEnd resumes one job's event stream.
const sseReconnects = 100

// waitEnd follows a job's SSE stream to its end event. The daemon drops a
// subscriber that falls behind on its retained events, so a stream that
// closes early is resumed with Last-Event-ID, as its protocol expects.
func (d *daemonEnv) waitEnd(ctx context.Context, id string) (simd.JobStatus, error) {
	var st simd.JobStatus
	lastID := 0
	for try := 0; ; try++ {
		ended := false
		err := d.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil, lastID, func(body io.Reader) error {
			var err error
			st, ended, err = readEnd(body, &lastID)
			return err
		})
		switch {
		case err != nil:
			return st, err
		case ended:
			return st, nil
		case try == sseReconnects:
			return st, fmt.Errorf("event stream ended %d times before the end event", try+1)
		}
	}
}

// call makes one request, resuming an event stream after event lastID
// when it is positive, and hands a 2xx response body to read.
func (d *daemonEnv) call(ctx context.Context, method, path string, payload []byte, lastID int, read func(io.Reader) error) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return read(resp.Body)
}

// readEnd reads a job's SSE stream up to its end event, recording in
// lastID the id of every whole event read. ended is false when the
// stream closed first.
func readEnd(body io.Reader, lastID *int) (st simd.JobStatus, ended bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	id, event, data := 0, "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if id > 0 {
				*lastID = id
			}
			if event == "end" {
				return st, true, json.Unmarshal([]byte(data), &st)
			}
			id, event, data = 0, "", ""
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	return st, false, sc.Err()
}

// stats reads /v1/stats.
func (d *daemonEnv) stats(ctx context.Context) (simd.Stats, error) {
	var st simd.Stats
	err := d.call(ctx, http.MethodGet, "/v1/stats", nil, 0, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&st)
	})
	return st, err
}

func matrixPayload(m mobisim.Matrix) ([]byte, error) {
	return json.Marshal(struct {
		Matrix mobisim.Matrix `json:"matrix"`
	}{m})
}

// submitMatrix runs one matrix job and records it.
func (d *daemonEnv) submitMatrix(ctx context.Context, kind jobKind, m mobisim.Matrix) jobRecord {
	rec := jobRecord{kind: kind, matrix: m}
	payload, err := matrixPayload(m)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.key = string(payload)
	var body []byte
	rec.status, body, rec.latency, rec.err = d.do(ctx, payload)
	rec.done = time.Now()
	if rec.err == nil && rec.status.State != simd.JobDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", rec.status.ID, rec.status.State, rec.status.Error)
	}
	rec.digest = sha256.Sum256(body)
	return rec
}

// clientLoop is client c's closed loop until window has passed since
// start: each job is submitted only after the previous one completed.
// The client that completes the rssJobs-th job of the loop reads the
// peak RSS then, so the memory figure covers the same work in every run.
// Client 0 times the loop's cycles into lc.
func (d *daemonEnv) clientLoop(ctx context.Context, seed int64, c int, start time.Time, window time.Duration, meet *rendezvous, jobs *atomic.Int64, rss *rssMark, lc *loopClock) []jobRecord {
	defer meet.leave(c)
	rng := rand.New(rand.NewSource(seed*31 + int64(c)))
	var recs []jobRecord
	var history []mobisim.Matrix
	fresh, overlaps := c, 0
	for k := 0; time.Since(start) < window; k++ {
		kind := kindCycle[k%len(kindCycle)]
		var m mobisim.Matrix
		switch kind {
		case jobFresh:
			m = daemonMatrix(platformAt(fresh), seed*1_000_003+int64(c)*100_003+int64(k)*7, pickLimits(rng, 4))
			fresh++
		case jobRepeat:
			// Half the repeats revisit a recent job, half any earlier one.
			n := len(history)
			if rng.Intn(2) == 0 {
				m = history[n-1-rng.Intn(min(8, n))]
			} else {
				m = history[rng.Intn(n)]
			}
		case jobOverlap:
			// With both clients at the rendezvous neither has a job
			// outstanding, so client 0 times the calibration kernel while
			// the daemon is idle, and a cycle starts when it lets both go.
			if meet.wait(c, k) && c == 0 {
				lc.calib = append(lc.calib, calibrate())
				if k%len(kindCycle) == cycleStart {
					lc.cycles = append(lc.cycles, time.Now())
				}
			}
			meet.wait(c, k+len(kindCycle)<<20)
			m = overlapMatrix(seed, k, overlaps, c)
			overlaps++
		}
		history = append(history, m)
		recs = append(recs, d.submitMatrix(ctx, kind, m))
		if jobs.Add(1) == rssJobs {
			rss.mark()
		}
	}
	return recs
}

// rssJobs is the job count at which daemon-mixed reads its peak RSS. The
// daemon keeps every job's status and body, so its memory grows with
// the jobs served, and a fixed count keeps the figure comparable.
const rssJobs = 300

// rssMark holds a peak RSS reading taken once.
type rssMark struct {
	once sync.Once
	mb   float64
	err  error
}

func (m *rssMark) mark() { m.once.Do(func() { m.mb, m.err = peakRSSMB() }) }

// loopClock is what client 0 times at the loop's meetings: a kernel run
// at each, and the time each cycle starts.
type loopClock struct {
	calib  []span
	cycles []time.Time
}

// rendezvous lines two clients up at overlap steps so their overlapping
// jobs are in flight together. A client that has left no longer holds
// the other back.
type rendezvous struct {
	at   [2]chan int
	gone [2]chan struct{}
	once [2]sync.Once
	solo bool
}

// newRendezvous lines up one or two clients; with one, every wait
// returns at once.
func newRendezvous(clients int) *rendezvous {
	r := &rendezvous{solo: clients == 1}
	for i := range r.at {
		// One slot: a client announces its step without waiting.
		r.at[i] = make(chan int, 1)
		r.gone[i] = make(chan struct{})
	}
	if r.solo {
		r.leave(1)
	}
	return r
}

// wait blocks client c until the other reaches step k or leaves. It
// reports whether every client is there: true when they met, or when
// there is only one client.
func (r *rendezvous) wait(c, k int) bool {
	o := 1 - c
	select {
	case r.at[c] <- k:
	case <-r.gone[o]:
		return r.solo
	}
	for {
		select {
		case got := <-r.at[o]:
			if got == k {
				return true
			}
		case <-r.gone[o]:
			return r.solo
		}
	}
}

func (r *rendezvous) leave(c int) { r.once[c].Do(func() { close(r.gone[c]) }) }

// timedFS times every fsync the daemon's cache and journal make through
// the filesystem seam.
type timedFS struct {
	faultfs.FS
	syncs, syncNs atomic.Int64
}

func (f *timedFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) OpenAppend(path string, perm os.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenAppend(path, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	faultfs.File
	fs *timedFS
}

func (t *timedFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	t.fs.syncNs.Add(time.Since(t0).Nanoseconds())
	t.fs.syncs.Add(1)
	return err
}

// warmupJobs load the daemon's engine pool and cache: a fresh job on
// each platform, then a repeat.
func warmupJobs(ctx context.Context, d *daemonEnv, seed int64) error {
	for _, m := range []mobisim.Matrix{
		daemonMatrix(mobisim.PlatformOdroidXU3, -seed-1, []float64{60, 66, 72, 78}),
		daemonMatrix(mobisim.PlatformNexus6P, -seed-2, []float64{60, 66, 72, 78}),
		daemonMatrix(mobisim.PlatformOdroidXU3, -seed-1, []float64{60, 66, 72, 78}),
	} {
		if rec := d.submitMatrix(ctx, jobFresh, m); rec.err != nil {
			return rec.err
		}
	}
	return nil
}

func runDaemonMixed(ctx context.Context, b *bench) (*report, error) {
	r := newReport()
	var fsys faultfs.FS = faultfs.OS{}
	var tfs *timedFS
	if b.trace {
		tfs = &timedFS{FS: faultfs.OS{}}
		fsys = tfs
	}
	var d *daemonEnv
	setups, teardown, err := setupRepeated(setupRuns, func() (func(), error) {
		env, err := startDaemon(b, fsys)
		if err != nil {
			return nil, err
		}
		if err := warmupJobs(ctx, env, b.seed); err != nil {
			env.close()
			return nil, err
		}
		d = env
		return env.close, nil
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer teardown()

	window := b.window()
	if b.trace {
		// The traced run splits its time between the loop and the
		// replays and step-phase passes.
		window /= 2
	}
	before, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	var syncs0, syncNs0 int64
	if tfs != nil {
		syncs0, syncNs0 = tfs.syncs.Load(), tfs.syncNs.Load()
	}
	// Overlap steps pair two clients, so the loop runs two clients, or
	// one where nproc is 1.
	clients := min(b.nproc, 2)
	meet := newRendezvous(clients)
	var jobs atomic.Int64
	var rss rssMark
	var lc loopClock
	perClient := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			perClient[c] = d.clientLoop(ctx, b.seed, c, start, window, meet, &jobs, &rss, &lc)
		}(c)
	}
	wg.Wait()
	rss.mark()
	if rss.err != nil {
		return nil, rss.err
	}
	after, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	b.clock.Stop()

	var recs []jobRecord
	for _, cr := range perClient {
		recs = append(recs, cr...)
	}
	for _, rec := range recs {
		r.attempted++
		switch {
		case rec.err != nil:
			r.fail(1, "%v", rec.err)
		case rec.kind == jobRepeat && rec.status.CacheHits != rec.status.Cells:
			r.fail(1, "repeat job %s: %d of %d cells were cache hits", rec.status.ID, rec.status.CacheHits, rec.status.Cells)
		}
	}
	if b.trace {
		setSimdMetrics(r, recs, before, after)
		if tfs != nil {
			syncs := float64(tfs.syncs.Load() - syncs0)
			r.set("simd.fsync_us", ratio(float64(tfs.syncNs.Load()-syncNs0), syncs)/1e3)
			r.set("simd.fsyncs_per_job", ratio(syncs, float64(len(recs))))
		}
		return r, traceDaemon(ctx, b, recs, r)
	}
	if err := setCycleMetrics(r, b.clock, recs, lc); err != nil {
		return nil, err
	}
	r.set("setup_s", setups.seconds(b.clock))
	r.set("peak_rss_mb", rss.mb)

	// Gate: every result body must equal the local RunSweep output for
	// its matrix.
	var keys []string
	refs := make(map[string]mobisim.Matrix)
	for _, rec := range recs {
		if _, ok := refs[rec.key]; !ok && rec.err == nil {
			refs[rec.key] = rec.matrix
			keys = append(keys, rec.key)
		}
	}
	want := make(map[string][32]byte, len(keys))
	for _, k := range keys {
		out, err := mobisim.RunSweep(ctx, refs[k], mobisim.SweepConfig{Workers: b.nproc, BatchWidth: batchWidth})
		if err != nil {
			return nil, fmt.Errorf("reference sweep: %w", err)
		}
		var buf bytes.Buffer
		if err := out.EncodeJSON(&buf); err != nil {
			return nil, err
		}
		want[k] = sha256.Sum256(buf.Bytes())
	}
	for _, rec := range recs {
		if rec.err == nil && rec.digest != want[rec.key] {
			r.fail(1, "job %s (%+v): result body differs from the local sweep", rec.status.ID, rec.matrix)
		}
	}
	return r, nil
}

// setCycleMetrics sets throughput and latency from the loop's whole
// cycles, each of which serves the same mix of jobs: cells_per_s is the
// median of per-cycle throughput, so one stall does not decide it, and
// each job's latency is scaled by the machine speed around its cycle. A
// cycle's time leaves out the kernel runs made inside it.
func setCycleMetrics(r *report, clock *stealClock, recs []jobRecord, lc loopClock) error {
	n := len(lc.cycles) - 1
	if n < 1 {
		return fmt.Errorf("the loop completed no whole cycle of %d steps", len(kindCycle))
	}
	cells := make([]int, n)
	lat := make([][]float64, n)
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		t0 := rec.done.Add(-rec.latency)
		i := sort.Search(len(lc.cycles), func(k int) bool { return lc.cycles[k].After(t0) }) - 1
		if i < 0 || i >= n {
			continue
		}
		cells[i] += rec.status.Cells
		lat[i] = append(lat[i], clock.seconds(span{t0, rec.done}))
	}
	var rates, latMs []float64
	for i := 0; i < n; i++ {
		lo := sort.Search(len(lc.calib), func(k int) bool { return !lc.calib[k].t0.Before(lc.cycles[i]) })
		hi := sort.Search(len(lc.calib), func(k int) bool { return lc.calib[k].t1.After(lc.cycles[i+1]) })
		busy := clock.seconds(span{lc.cycles[i], lc.cycles[i+1]})
		for _, c := range lc.calib[lo:hi] {
			busy -= clock.seconds(c)
		}
		speed := speedFactor(clock, lc.calib[max(0, lo-3):min(len(lc.calib), hi+3)])
		rates = append(rates, ratio(float64(cells[i]), busy/speed))
		for _, s := range lat[i] {
			latMs = append(latMs, 1e3*s/speed)
		}
	}
	r.set("cells_per_s", median(rates))
	r.set("job_p50_ms", quantile(latMs, 0.5))
	r.set("job_p90_ms", quantile(latMs, 0.9))
	return nil
}

// setSimdMetrics sets the daemon layer's metrics from the jobs' status
// timestamps and the change in /v1/stats over the loop.
func setSimdMetrics(r *report, recs []jobRecord, before, after simd.Stats) {
	var queue, run, client []float64
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		created, err1 := time.Parse(time.RFC3339Nano, rec.status.CreatedAt)
		started, err2 := time.Parse(time.RFC3339Nano, rec.status.StartedAt)
		done, err3 := time.Parse(time.RFC3339Nano, rec.status.DoneAt)
		if err := errors.Join(err1, err2, err3); err != nil {
			r.problem("job %s: status timestamps: %v", rec.status.ID, err)
			continue
		}
		queue = append(queue, float64(started.Sub(created).Nanoseconds())/1e6)
		run = append(run, float64(done.Sub(started).Nanoseconds())/1e6)
		client = append(client, float64((rec.latency-done.Sub(created)).Nanoseconds())/1e6)
	}
	r.set("simd.queue_wait_ms", median(queue))
	r.set("simd.run_ms", median(run))
	r.set("simd.client_ms", median(client))
	mem := float64(after.Cache.MemHits - before.Cache.MemHits)
	disk := float64(after.Cache.DiskHits - before.Cache.DiskHits)
	miss := float64(after.Cache.Misses - before.Cache.Misses)
	r.set("simd.mem_hit_ratio", ratio(mem, mem+disk+miss))
	r.set("simd.disk_hit_ratio", ratio(disk, mem+disk+miss))
	r.set("simd.dedup_ratio", ratio(float64(after.Scheduler.Deduped-before.Scheduler.Deduped),
		float64(after.Cells.Completed-before.Cells.Completed)))
}

// traceDaemon replays the loop's first fresh jobs through the mobisim
// seam — planned with warm start, as the daemon plans them — and runs
// their cells through the step-phase passes.
func traceDaemon(ctx context.Context, b *bench, recs []jobRecord, r *report) error {
	s := &seam{timer: timerCost()}
	var specs, first []mobisim.Scenario
	var metrics []map[string]float64
	var counts0 workCounts
	replayed := 0
	for _, rec := range recs {
		if replayed == traceWindowJobs {
			break
		}
		if rec.kind != jobFresh || rec.err != nil {
			continue
		}
		cells, err := mobisim.ExpandCells(rec.matrix)
		if err != nil {
			return err
		}
		jobSpecs := cellSpecs(cells)
		m, err := s.run(ctx, jobSpecs, true)
		if err != nil {
			return err
		}
		body, err := s.encode(cells, m, false)
		if err != nil {
			return err
		}
		if sha256.Sum256(body) != rec.digest {
			r.fail(1, "job %s: seam replay differs from the daemon's body", rec.status.ID)
		}
		if replayed == 0 {
			first, counts0 = jobSpecs, s.work
		}
		specs = append(specs, jobSpecs...)
		metrics = append(metrics, m...)
		replayed++
	}
	if replayed == 0 {
		return fmt.Errorf("the loop completed no fresh job to replay")
	}
	if err := recount(ctx, s.timer, first, true, counts0, r); err != nil {
		return err
	}
	if err := forkSample(s, specs, metrics, r); err != nil {
		return err
	}
	s.report(r)
	r.set("work.ops", float64(replayed))
	setExploreZero(r)
	return runPhases(ctx, specs, metrics, b.window()/2, r)
}

// probeDaemon submits specs to a fresh in-process daemon as one
// scenarios job, checks the body against want, and sets the daemon
// layer's metrics from that job, for workloads that do not otherwise
// run the daemon.
func probeDaemon(ctx context.Context, b *bench, specs []mobisim.Scenario, want []map[string]float64, r *report) error {
	tfs := &timedFS{FS: faultfs.OS{}}
	d, err := startDaemon(b, tfs)
	if err != nil {
		return err
	}
	defer d.close()
	before, err := d.stats(ctx)
	if err != nil {
		return err
	}
	syncs0, syncNs0 := tfs.syncs.Load(), tfs.syncNs.Load()
	payload, err := json.Marshal(struct {
		Scenarios []mobisim.Scenario `json:"scenarios"`
	}{specs})
	if err != nil {
		return err
	}
	rec := jobRecord{}
	var body []byte
	rec.status, body, rec.latency, rec.err = d.do(ctx, payload)
	if rec.err != nil {
		return rec.err
	}
	cells, err := scenarioCells(specs)
	if err != nil {
		return err
	}
	out, err := mobisim.AggregateCells(cells, want, false)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := out.EncodeJSON(&buf); err != nil {
		return err
	}
	if !bytes.Equal(body, buf.Bytes()) {
		r.fail(1, "probe job %s: body differs from the workload's results", rec.status.ID)
	}
	after, err := d.stats(ctx)
	if err != nil {
		return err
	}
	setSimdMetrics(r, []jobRecord{rec}, before, after)
	syncs := float64(tfs.syncs.Load() - syncs0)
	r.set("simd.fsync_us", ratio(float64(tfs.syncNs.Load()-syncNs0), syncs)/1e3)
	r.set("simd.fsyncs_per_job", syncs)
	return nil
}
