package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/pkg/mobisim"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued means the job is admitted but no worker has picked it up.
	JobQueued JobState = "queued"
	// JobRunning means a worker is executing the job's cells.
	JobRunning JobState = "running"
	// JobDone means the job finished and its result body is available.
	JobDone JobState = "done"
	// JobFailed means the job stopped on an error.
	JobFailed JobState = "failed"
	// JobCanceled means the job was canceled by the client or by
	// daemon shutdown before completing.
	JobCanceled JobState = "canceled"
)

// JobRequest is the POST /v1/jobs body: exactly one of Matrix,
// Scenario or Scenarios (the same JSON specs mobsim/sweep accept,
// validated by the same strict parsers), plus response/streaming
// options.
type JobRequest struct {
	// Matrix is a sweep matrix spec (mobisim.ParseMatrix).
	Matrix *json.RawMessage `json:"matrix,omitempty"`
	// Scenario is a single scenario spec (mobisim.ParseScenario).
	Scenario *json.RawMessage `json:"scenario,omitempty"`
	// Scenarios is a list of standalone scenario specs, each becoming
	// one cell at its list index — the remote-evaluation shape
	// cmd/explore submits per generation.
	Scenarios []json.RawMessage `json:"scenarios,omitempty"`
	// IncludeRaw adds per-cell raw results to the result body
	// (SweepConfig.IncludeRaw).
	IncludeRaw bool `json:"include_raw,omitempty"`
	// StreamSamples adds per-cell observer samples to the job's SSE
	// feed (best-effort telemetry; slow consumers may drop samples).
	StreamSamples bool `json:"stream_samples,omitempty"`
}

// JobSpec is a parsed, validated, fully-expanded job: the
// content-addressed cells to run plus the response options.
type JobSpec struct {
	Cells         []mobisim.Cell
	IncludeRaw    bool
	StreamSamples bool
}

// ParseJobRequest strictly decodes and expands a job submission.
// Decoding mirrors the CLI parsers exactly — unknown fields and
// trailing data are errors — and matrix/scenario validation is
// delegated verbatim to mobisim.ParseMatrix / mobisim.ParseScenario,
// so a body the daemon accepts is a body the CLI accepts and vice
// versa.
func ParseJobRequest(data []byte) (*JobSpec, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("simd: job request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("simd: job request: trailing data after JSON object")
	}
	specified := 0
	for _, set := range []bool{req.Matrix != nil, req.Scenario != nil, req.Scenarios != nil} {
		if set {
			specified++
		}
	}
	if specified > 1 {
		return nil, fmt.Errorf("simd: job request: matrix, scenario and scenarios are mutually exclusive")
	}
	switch {
	case req.Matrix != nil:
		m, err := mobisim.ParseMatrix(*req.Matrix)
		if err != nil {
			return nil, err
		}
		cells, err := mobisim.ExpandCells(m)
		if err != nil {
			return nil, err
		}
		return &JobSpec{Cells: cells, IncludeRaw: req.IncludeRaw, StreamSamples: req.StreamSamples}, nil
	case req.Scenario != nil:
		sc, err := mobisim.ParseScenario(*req.Scenario)
		if err != nil {
			return nil, err
		}
		cell, err := mobisim.CellForScenario(sc)
		if err != nil {
			return nil, err
		}
		return &JobSpec{Cells: []mobisim.Cell{cell}, IncludeRaw: req.IncludeRaw, StreamSamples: req.StreamSamples}, nil
	case req.Scenarios != nil:
		if len(req.Scenarios) == 0 {
			return nil, fmt.Errorf("simd: job request: scenarios list is empty")
		}
		cells := make([]mobisim.Cell, len(req.Scenarios))
		for i, raw := range req.Scenarios {
			sc, err := mobisim.ParseScenario(raw)
			if err != nil {
				return nil, fmt.Errorf("simd: job request: scenarios[%d]: %w", i, err)
			}
			cell, err := mobisim.CellForScenario(sc)
			if err != nil {
				return nil, fmt.Errorf("simd: job request: scenarios[%d]: %w", i, err)
			}
			cell.Index = i
			cells[i] = cell
		}
		return &JobSpec{Cells: cells, IncludeRaw: req.IncludeRaw, StreamSamples: req.StreamSamples}, nil
	default:
		return nil, fmt.Errorf("simd: job request: need a matrix, a scenario or a scenarios list")
	}
}

// JobStatus is the GET /v1/jobs/{id} body: a point-in-time snapshot of
// the job's progress and cell-origin counters.
type JobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Cells     int      `json:"cells"`
	Completed int      `json:"completed"`
	CacheHits int      `json:"cache_hits"`
	Computed  int      `json:"computed"`
	Deduped   int      `json:"deduped"`
	Error     string   `json:"error,omitempty"`
	CreatedAt string   `json:"created_at"`
	StartedAt string   `json:"started_at,omitempty"`
	DoneAt    string   `json:"done_at,omitempty"`
}

// Job is one admitted submission moving through the queue and worker
// pool. All mutators are safe for concurrent use; the SSE broker fans
// its lifecycle out to subscribers.
type Job struct {
	ID     string
	Spec   *JobSpec
	Broker *Broker

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	completed int
	origins   map[Origin]int
	result    []byte
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
}

// NewJob builds a queued job whose execution context descends from
// parent (daemon hard-shutdown cancels all jobs through it).
func NewJob(id string, spec *JobSpec, parent context.Context) *Job {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		ID:      id,
		Spec:    spec,
		Broker:  NewBroker(),
		ctx:     ctx,
		cancel:  cancel,
		state:   JobQueued,
		origins: make(map[Origin]int),
		created: time.Now(),
	}
}

// Context is the job's execution context; it is canceled by Cancel and
// by daemon hard shutdown.
func (j *Job) Context() context.Context { return j.ctx }

// Cancel requests cancellation. A queued job transitions to canceled
// immediately; a running one transitions when its executor observes
// the canceled context. Terminal jobs are unaffected.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobCanceled
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.cancel()
	if j.State() == JobCanceled {
		j.publishEnd()
	}
}

// Start transitions queued → running; false means the job was already
// canceled and must not run.
func (j *Job) Start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	return true
}

// CellDone records one completed cell.
func (j *Job) CellDone(origin Origin) {
	j.mu.Lock()
	j.completed++
	j.origins[origin]++
	j.mu.Unlock()
}

// Finish transitions running → done with the result body and closes
// the SSE feed.
func (j *Job) Finish(result []byte) {
	j.mu.Lock()
	j.state = JobDone
	j.result = result
	j.finished = time.Now()
	j.mu.Unlock()
	j.publishEnd()
}

// Fail transitions to failed — or canceled, when the job's own context
// was canceled — and closes the SSE feed.
func (j *Job) Fail(err error) {
	j.mu.Lock()
	if j.ctx.Err() != nil {
		j.state = JobCanceled
	} else {
		j.state = JobFailed
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.publishEnd()
	j.cancel()
}

// publishEnd emits the terminal SSE event and closes the broker.
func (j *Job) publishEnd() {
	st := j.Status()
	if data, err := json.Marshal(st); err == nil {
		j.Broker.Publish("end", data, true)
	}
	j.Broker.Close()
}

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the stored result body (nil unless done) and state.
// The body is returned as stored, byte for byte.
func (j *Job) Result() ([]byte, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state
}

// Status snapshots the job for the status endpoint and SSE events.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		Cells:     len(j.Spec.Cells),
		Completed: j.completed,
		CacheHits: j.origins[OriginMemCache] + j.origins[OriginDiskCache],
		Computed:  j.origins[OriginComputed],
		Deduped:   j.origins[OriginDeduped],
		Error:     j.errMsg,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.DoneAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}
