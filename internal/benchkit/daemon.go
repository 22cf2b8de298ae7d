package benchkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/simd"
	"repro/pkg/mobisim"
)

// DaemonSweepColdBatched measures the daemon's compute path end to
// end at width 8 (DefaultBatchWidth): the replicate-heavy matrix
// submitted to an in-process simd server over HTTP, simulated as
// lockstep units, aggregated, encoded, and fetched. Every iteration
// shifts the base seed so its cells miss the cache. Reports cells/sec.
func DaemonSweepColdBatched(b *testing.B) { daemonSweepBench(b, false) }

// DaemonSweepWarm is DaemonSweepColdBatched's cache-hit counterpart:
// the matrix is primed once outside the timer, then every timed
// resubmission must be answered entirely from the cache (the bench
// fails on any recomputation). Cold vs warm is the daemon's headline
// speedup.
func DaemonSweepWarm(b *testing.B) { daemonSweepBench(b, true) }

func daemonSweepBench(b *testing.B, warm bool) {
	dir, err := os.MkdirTemp("", "simd-bench-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv, err := simd.NewServer(simd.Config{CacheDir: dir, JobWorkers: 1, BatchWidth: mobisim.DefaultBatchWidth})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if warm {
		daemonSubmit(b, ts.Client(), ts.URL, WarmSweepMatrix())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix := WarmSweepMatrix()
		if !warm {
			// A shifted seed changes every cell key: each iteration is a
			// genuine cold run against a warm process.
			matrix.BaseSeed = Seed + int64(i+1)*1000
		}
		status := daemonSubmit(b, ts.Client(), ts.URL, matrix)
		if warm && (status.CacheHits != WarmSweepCells || status.Computed != 0) {
			b.Fatalf("warm job recomputed: %d hits, %d computed", status.CacheHits, status.Computed)
		}
		if !warm && status.Computed != WarmSweepCells {
			b.Fatalf("cold job served from cache: %d hits, %d computed", status.CacheHits, status.Computed)
		}
	}
	b.ReportMetric(float64(WarmSweepCells*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// daemonJobStatus is the slice of the /v1/jobs status body the
// benchmark asserts on.
type daemonJobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	CacheHits int    `json:"cache_hits"`
	Computed  int    `json:"computed"`
}

// daemonSubmit posts one matrix job, polls it to completion, and
// fetches (and discards) the result body so the measurement covers
// the full request round trip.
func daemonSubmit(b *testing.B, client *http.Client, base string, matrix mobisim.Matrix) daemonJobStatus {
	b.Helper()
	body, err := json.Marshal(struct {
		Matrix mobisim.Matrix `json:"matrix"`
	}{matrix})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var status daemonJobStatus
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	for status.State != "done" {
		if status.State == "failed" || status.State == "canceled" {
			b.Fatalf("job %s %s: %s", status.ID, status.State, status.Error)
		}
		time.Sleep(200 * time.Microsecond)
		r, err := client.Get(base + "/v1/jobs/" + status.ID)
		if err != nil {
			b.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&status)
		r.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	r, err := client.Get(fmt.Sprintf("%s/v1/jobs/%s/result", base, status.ID))
	if err != nil {
		b.Fatal(err)
	}
	n, err := io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if err != nil || r.StatusCode != http.StatusOK || n == 0 {
		b.Fatalf("result fetch: HTTP %d, %d bytes, err %v", r.StatusCode, n, err)
	}
	return status
}
