package simd

// Chaos and fault-injection property tests: the daemon is crashed
// mid-job (Server.Kill simulates power loss: no terminal journal
// records, no graceful anything), restarted on the same directory, and
// its recovered answers are byte-compared against a cold single-run
// oracle. Scripted filesystem faults (torn writes, ENOSPC, unusable
// directories) must demote durability — visibly, via /healthz and
// /v1/stats — and never change, truncate or fail a job's result.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/pkg/mobisim"
	"repro/pkg/simclient"
)

// Kill simulates a daemon crash for chaos tests: the base context is
// hard-canceled mid-flight, no terminal journal records are written for
// interrupted jobs, and the journal handle is dropped without syncing —
// as close to power loss as a test can get without killing the process
// (the listener dies with the httptest server; the journal bytes are
// whatever the WAL had absorbed). The server is unusable afterwards.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.mu.Lock()
	s.draining = true
	started := s.started
	s.mu.Unlock()
	s.baseCancel()
	s.queue.Close()
	if started {
		s.wg.Wait()
	}
	s.cancelQueued()
	s.journal.Disable()
}

// chaosMatrix is the crash-window matrix: enough cells that a kill
// reliably lands mid-job when cell completions are latency-injected.
func chaosMatrix() mobisim.Matrix {
	return mobisim.Matrix{
		Platforms:  []string{mobisim.PlatformOdroidXU3},
		Workloads:  []string{"3dmark+bml"},
		Governors:  []string{mobisim.GovAppAware},
		LimitsC:    []float64{55, 58, 61, 64, 70},
		Replicates: 2,
		DurationS:  2,
		BaseSeed:   11,
	}
}

func serverStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func serverHealth(t *testing.T, ts *httptest.Server) Health {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestServerCrashRecoveryByteIdentity is the tentpole chaos test: kill
// the daemon mid-job (simulated power loss), restart on the same
// directory, and the recovered job — same ID, resumed from the journal
// — produces a result byte-identical to a cold single-run oracle, with
// the pre-crash cells served from the cache instead of resimulated.
func TestServerCrashRecoveryByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := chaosMatrix()
	want := coldSweepJSON(t, m)
	dir := t.TempDir()

	// Latency on cell-cache writes widens the kill window without
	// changing any bytes.
	inj := faultfs.NewInjector(nil).Add(faultfs.Rule{
		Op: faultfs.OpCreate, PathContains: "cellkey",
		Latency: 25 * time.Millisecond, LatencyOnly: true,
	})
	srv1, ts1 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1, CellWorkers: 1, FS: inj})
	srv1.Start()

	st, resp := postJob(t, ts1, matrixBody(t, m, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		cur := getStatus(t, ts1, st.ID)
		if cur.State == JobDone {
			t.Fatal("job finished before the kill; widen the injected latency")
		}
		if cur.Completed >= 2 && cur.Completed < cur.Cells {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the kill window (status %+v)", cur)
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Kill()
	ts1.Close()

	// Restart on the same directory: the journal replays the submit
	// record, sees no terminal record, and re-enqueues the job.
	srv2, ts2 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1})
	if got := srv2.Recovered(); got != 1 {
		t.Fatalf("recovered jobs: %d, want 1", got)
	}
	srv2.Start()
	defer srv2.Shutdown(context.Background())

	done := waitState(t, ts2, st.ID, JobDone)
	if done.ID != st.ID {
		t.Errorf("recovered job id %q, want original %q", done.ID, st.ID)
	}
	if done.CacheHits == 0 {
		t.Error("recovered run served no cells from cache; pre-crash work was lost")
	}
	if done.CacheHits+done.Computed+done.Deduped != done.Cells {
		t.Errorf("recovered run cell accounting broken: %+v", done)
	}
	body := getResult(t, ts2, st.ID)
	if !bytes.Equal(body, want) {
		t.Errorf("recovered result differs from cold oracle:\nwant:\n%s\ngot:\n%s", want, body)
	}

	stats := serverStats(t, ts2)
	if stats.Recovered.Jobs != 1 {
		t.Errorf("stats recovered jobs: %d, want 1", stats.Recovered.Jobs)
	}
	if !stats.Journal.Enabled {
		t.Error("journal must stay enabled after recovery")
	}

	// A fresh resubmission on the warm daemon is all cache hits and
	// still byte-identical.
	st2, _ := postJob(t, ts2, matrixBody(t, m, ""))
	done2 := waitState(t, ts2, st2.ID, JobDone)
	if done2.CacheHits != done2.Cells {
		t.Errorf("post-recovery resubmission not fully cached: %+v", done2)
	}
	if body2 := getResult(t, ts2, st2.ID); !bytes.Equal(body2, want) {
		t.Error("post-recovery resubmission differs from cold oracle")
	}
}

// TestServerJournalTornWriteDegrades pins the degradation policy: a
// torn journal append demotes journaling (visible in /healthz and
// /v1/stats), the in-flight job still completes with oracle bytes, and
// a restart on the torn directory recovers cleanly — the torn tail is
// truncated, nothing resurrects wrong.
func TestServerJournalTornWriteDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	want := coldSweepJSON(t, m)
	dir := t.TempDir()

	// Skip: 1 lets the open-time compaction write pass; the submit
	// record is then torn three bytes in.
	inj := faultfs.NewInjector(nil).Add(faultfs.Rule{
		Op: faultfs.OpWrite, PathContains: "journal",
		Torn: true, TornAt: 3, Count: 1, Skip: 1,
	})
	srv1, ts1 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1, FS: inj})
	srv1.Start()

	st, resp := postJob(t, ts1, matrixBody(t, m, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after torn journal write: %d (the request must not fail)", resp.StatusCode)
	}
	done := waitState(t, ts1, st.ID, JobDone)
	if body := getResult(t, ts1, done.ID); !bytes.Equal(body, want) {
		t.Error("result under journal fault differs from cold oracle")
	}
	if !srv1.Degraded() {
		t.Error("torn journal write must degrade the daemon")
	}
	h := serverHealth(t, ts1)
	if !h.Degraded || len(h.Reasons) == 0 {
		t.Errorf("/healthz must report the demotion: %+v", h)
	}
	stats := serverStats(t, ts1)
	if stats.Journal.AppendErrors == 0 {
		t.Error("stats must count the journal append error")
	}
	if len(stats.DegradedReasons) == 0 {
		t.Error("stats must carry the demotion reasons")
	}
	if inj.Injected(faultfs.OpWrite) != 1 {
		t.Fatalf("scripted fault fired %d times, want 1", inj.Injected(faultfs.OpWrite))
	}
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	// Restart without faults: the torn record is truncated (counted,
	// not fatal), no job resurrects, and the cached cells answer a
	// resubmission byte-identically.
	srv2, ts2 := newTestServer(t, Config{CacheDir: dir, JobWorkers: 1})
	if got := srv2.Recovered(); got != 0 {
		t.Fatalf("recovered jobs after torn submit record: %d, want 0", got)
	}
	if srv2.Degraded() {
		t.Error("a truncated tail is repair, not degradation")
	}
	srv2.Start()
	defer srv2.Shutdown(context.Background())
	st2, _ := postJob(t, ts2, matrixBody(t, m, ""))
	done2 := waitState(t, ts2, st2.ID, JobDone)
	if done2.CacheHits != done2.Cells {
		t.Errorf("restart resubmission not fully cached: %+v", done2)
	}
	if body := getResult(t, ts2, st2.ID); !bytes.Equal(body, want) {
		t.Error("restart resubmission differs from cold oracle")
	}
}

// TestServerCacheENOSPCStillCorrect pins the no-wrong-results property
// under disk exhaustion: every cell-cache write fails with ENOSPC, the
// job completes with oracle bytes anyway, and the lost writes only
// cost future hits.
func TestServerCacheENOSPCStillCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	want := coldSweepJSON(t, m)

	inj := faultfs.NewInjector(nil).Add(faultfs.Rule{
		Op: faultfs.OpCreate, PathContains: "cellkey", Err: faultfs.ErrNoSpace,
	})
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1, FS: inj})
	srv.Start()
	defer srv.Shutdown(context.Background())

	st, _ := postJob(t, ts, matrixBody(t, m, ""))
	waitState(t, ts, st.ID, JobDone)
	if body := getResult(t, ts, st.ID); !bytes.Equal(body, want) {
		t.Error("result under ENOSPC differs from cold oracle")
	}
	if inj.Injected(faultfs.OpCreate) == 0 {
		t.Fatal("ENOSPC script never fired; the test exercised nothing")
	}
}

// TestServerUnusableCacheDirDegrades pins construction-time demotion:
// a cache root that cannot be created demotes the daemon to
// memory-only — visibly — instead of failing construction, and jobs
// still produce oracle bytes.
func TestServerUnusableCacheDirDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	want := coldSweepJSON(t, m)

	inj := faultfs.NewInjector(nil).Add(faultfs.Rule{Op: faultfs.OpMkdir, Err: faultfs.ErrNoSpace})
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1, FS: inj})
	srv.Start()
	defer srv.Shutdown(context.Background())

	if !srv.Degraded() {
		t.Fatal("unusable cache dir must degrade, not fail")
	}
	if srv.cache.Dir() != "" {
		t.Error("demoted daemon must run a memory-only cache")
	}
	if srv.journal != nil {
		t.Error("memory-only daemon must run journal-less")
	}
	h := serverHealth(t, ts)
	if !h.Degraded {
		t.Errorf("/healthz: %+v", h)
	}
	st, _ := postJob(t, ts, matrixBody(t, m, ""))
	waitState(t, ts, st.ID, JobDone)
	if body := getResult(t, ts, st.ID); !bytes.Equal(body, want) {
		t.Error("memory-only result differs from cold oracle")
	}
}

// TestServerMaxBodyBytes pins the submission body bound: a body over
// Config.MaxBodyBytes answers 413, and the daemon stays healthy.
func TestServerMaxBodyBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	srv.Start()
	defer srv.Shutdown(context.Background())

	big := fmt.Sprintf(`{"matrix": {"workloads": [%q]}}`, strings.Repeat("x", 128))
	_, resp := postJob(t, ts, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
	if h := serverHealth(t, ts); h.Status != "ok" {
		t.Errorf("daemon unhealthy after 413: %+v", h)
	}
}

// TestServerIdempotentResubmission pins the dedup contract: the same
// envelope with the same Idempotency-Key attaches to the existing job
// (200, same id); without the header every submission is a new job.
func TestServerIdempotentResubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	body := matrixBody(t, m, "")
	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())

	post := func(withKey bool) (JobStatus, int) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if withKey {
			req.Header.Set("Idempotency-Key", simclient.EnvelopeHash([]byte(body)))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st, resp.StatusCode
	}

	first, code := post(true)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	again, code := post(true)
	if code != http.StatusOK || again.ID != first.ID {
		t.Errorf("keyed resubmission: %d id %q, want 200 attaching to %q", code, again.ID, first.ID)
	}
	fresh, code := post(false)
	if code != http.StatusAccepted || fresh.ID == first.ID {
		t.Errorf("unkeyed resubmission: %d id %q, want 202 with a new job", code, fresh.ID)
	}
	waitState(t, ts, first.ID, JobDone)
	waitState(t, ts, fresh.ID, JobDone)
}

// readFrames reads raw SSE frames (everything up to a blank line) from
// r until stop returns true for an accumulated frame.
func readFrames(t *testing.T, r *bufio.Reader, stop func(n int, frame string) bool) []string {
	t.Helper()
	var frames []string
	var cur strings.Builder
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early after %d frames: %v", len(frames), err)
		}
		if line == "\n" {
			frames = append(frames, cur.String())
			cur.Reset()
			if stop(len(frames), frames[len(frames)-1]) {
				return frames
			}
			continue
		}
		cur.WriteString(line)
	}
}

func frameID(t *testing.T, frame string) int {
	t.Helper()
	for _, line := range strings.Split(frame, "\n") {
		if rest, ok := strings.CutPrefix(line, "id: "); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			return n
		}
	}
	t.Fatalf("frame without id:\n%s", frame)
	return 0
}

// TestServerSSEReconnectGapFree is the reconnect satellite: drop a
// subscriber mid-stream, reconnect with Last-Event-ID, and the stitched
// frames are byte-identical to one uninterrupted replay — no gaps, no
// duplicates.
func TestServerSSEReconnectGapFree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	m := testMatrix()
	srv, ts := newTestServer(t, Config{JobWorkers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())

	st, _ := postJob(t, ts, matrixBody(t, m, ""))
	eventsURL := ts.URL + "/v1/jobs/" + st.ID + "/events"

	// First subscription: two frames, then drop the connection.
	resp, err := http.Get(eventsURL)
	if err != nil {
		t.Fatal(err)
	}
	head := readFrames(t, bufio.NewReader(resp.Body), func(n int, _ string) bool { return n == 2 })
	resp.Body.Close()
	lastID := frameID(t, head[1])

	waitState(t, ts, st.ID, JobDone)

	// Reconnect with Last-Event-ID: the daemon replays everything after
	// the drop, through the terminal event.
	req, err := http.NewRequest(http.MethodGet, eventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := readFrames(t, bufio.NewReader(resp2.Body), func(_ int, f string) bool {
		return strings.Contains(f, "event: end\n")
	})
	resp2.Body.Close()

	// One uninterrupted replay is the oracle.
	resp3, err := http.Get(eventsURL)
	if err != nil {
		t.Fatal(err)
	}
	full := readFrames(t, bufio.NewReader(resp3.Body), func(_ int, f string) bool {
		return strings.Contains(f, "event: end\n")
	})
	resp3.Body.Close()

	stitched := strings.Join(append(head, tail...), "\n")
	oracle := strings.Join(full, "\n")
	if stitched != oracle {
		t.Errorf("stitched replay differs from uninterrupted replay:\nstitched:\n%s\noracle:\n%s", stitched, oracle)
	}
	for i := 1; i < len(full); i++ {
		if frameID(t, full[i]) != frameID(t, full[i-1])+1 {
			t.Fatalf("replay ids not dense at frame %d:\n%s", i, oracle)
		}
	}
}

// TestRemoteExploreByteIdentity pins the -daemon acceptance contract:
// a design-space search evaluated remotely through simclient.Runner
// emits a trace byte-identical to local evaluation.
func TestRemoteExploreByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	fptr := func(v float64) *float64 { return &v }
	spec := mobisim.OptimizeSpec{
		Name: "chaos-remote-search",
		Scenario: mobisim.Scenario{
			Platform:  mobisim.PlatformOdroidXU3,
			Workload:  "gen-bursty+bml",
			Governor:  mobisim.GovAppAware,
			DurationS: 2,
			Seed:      42,
		},
		Objective:   mobisim.Objective{Metric: mobisim.MetricBMLIterations, Goal: mobisim.GoalMaximize},
		Constraints: []mobisim.Constraint{{Metric: mobisim.MetricPeakC, Max: fptr(90)}},
		Mutations: []mobisim.Mutation{
			{Param: mobisim.ParamLimitC, Min: 55, Max: 75, Step: 5},
			{Param: mobisim.ParamCPUGovernor, Values: []string{mobisim.CPUGovStock, mobisim.CPUGovPerformance}},
		},
		Neighbors:      3,
		MaxGenerations: 2,
		Patience:       2,
		Seed:           7,
	}

	encode := func(res *mobisim.SearchResult) []byte {
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	local, err := mobisim.Optimize(context.Background(), spec, mobisim.OptimizeConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := encode(local)

	srv, ts := newTestServer(t, Config{CacheDir: t.TempDir(), JobWorkers: 2})
	srv.Start()
	defer srv.Shutdown(context.Background())

	runner := &simclient.Runner{Client: simclient.New(ts.URL)}
	remote, err := mobisim.Optimize(context.Background(), spec, mobisim.OptimizeConfig{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	got := encode(remote)
	if !bytes.Equal(got, want) {
		t.Errorf("remote search trace differs from local:\nlocal:\n%s\nremote:\n%s", want, got)
	}
	if remote.Cells == 0 {
		t.Error("remote search simulated no cells; the runner was never exercised")
	}
}
