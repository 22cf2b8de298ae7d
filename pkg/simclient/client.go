// Package simclient is the public Go client for the simd daemon's
// /v1 job API: submission, status polling, result retrieval and SSE
// streaming, wrapped in the retry discipline a crash-safe daemon
// expects of its callers — context-aware exponential backoff with
// full jitter, Retry-After honored on 429/503 backpressure, and
// idempotent resubmission keyed by the request envelope hash so a
// retry after a daemon crash attaches to the recovered job instead
// of running a duplicate.
//
// The client defines its own wire types mirroring the daemon's JSON
// contract and does not import the daemon. It is not engine-free:
// Runner implements mobisim.CellRunner over mobisim.Scenario, so the
// package imports pkg/mobisim and links the simulation engine with it.
package simclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Job states, mirroring the daemon's JobState values.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus mirrors the daemon's job-status JSON body.
type JobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	CacheHits int    `json:"cache_hits"`
	Computed  int    `json:"computed"`
	Deduped   int    `json:"deduped"`
	Error     string `json:"error,omitempty"`
	CreatedAt string `json:"created_at,omitempty"`
	StartedAt string `json:"started_at,omitempty"`
	DoneAt    string `json:"done_at,omitempty"`
}

// Terminal reports whether the state is final.
func (s *JobStatus) Terminal() bool {
	return s.State == StateDone || s.State == StateFailed || s.State == StateCanceled
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("simclient: daemon returned %d: %s", e.Status, e.Message)
}

// IsNotFound reports whether err is a 404 — after an unjournaled
// daemon restart, a pre-crash job id answers 404 and the caller's
// move is idempotent resubmission.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// Client talks to one simd daemon. The zero value is not usable; use
// New, or set BaseURL and leave the rest zero for defaults. Clients
// are safe for concurrent use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds each operation's retry loop (default 10).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); attempt
	// n waits jitter(min(MaxDelay, BaseDelay<<n)), plus the daemon's
	// Retry-After when one was sent — the server's price is a floor the
	// jitter can only add to, never undercut.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5s).
	MaxDelay time.Duration
	// PollInterval spaces Wait's status polls (default 50ms).
	PollInterval time.Duration
	// Jitter maps a computed delay to the slept delay. The default is
	// full jitter — uniform in [0, d) — which decorrelates a thundering
	// herd of retrying clients. Tests inject a deterministic one.
	Jitter func(d time.Duration) time.Duration
	// Logf, when set, receives one line per retry decision.
	Logf func(format string, args ...any)
}

// New returns a client for the daemon at baseURL with default retry
// policy.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 10
}

func (c *Client) baseDelay() time.Duration {
	if c.BaseDelay > 0 {
		return c.BaseDelay
	}
	return 100 * time.Millisecond
}

func (c *Client) maxDelay() time.Duration {
	if c.MaxDelay > 0 {
		return c.MaxDelay
	}
	return 5 * time.Second
}

func (c *Client) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 50 * time.Millisecond
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// EnvelopeHash is the idempotency key of a submission: FNV-1a 64 over
// the raw envelope bytes, rendered %016x — the same derivation the
// daemon journals, computed independently so the client stays free of
// server imports.
func EnvelopeHash(envelope []byte) string {
	h := fnv.New64a()
	_, _ = h.Write(envelope)
	return fmt.Sprintf("%016x", h.Sum64())
}

// backoffDelay computes attempt n's pre-jitter delay.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.baseDelay()
	for i := 0; i < attempt && d < c.maxDelay(); i++ {
		d *= 2
	}
	if d > c.maxDelay() {
		d = c.maxDelay()
	}
	return d
}

// sleep waits out one backoff step, honoring ctx. Only the backoff
// component is jittered; a server-supplied retryAfter is a floor added
// on top, never jittered away — a daemon that said "retry after 2s"
// named its price, and a client that jitters below it just re-hits the
// 429 it was warned about. Jittering upward from the floor still
// decorrelates a thundering herd of equally-priced clients.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.backoffDelay(attempt)
	if c.Jitter != nil {
		d = c.Jitter(d)
	} else if d > 0 {
		d = time.Duration(rand.Int63n(int64(d) + 1))
	}
	if retryAfter > 0 {
		d += retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a Retry-After header: delta-seconds or HTTP-date.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// retryableStatus reports whether a status code is worth retrying:
// backpressure (429), a draining or restarting daemon (503), and
// transient gateway failures in front of one (502, 504).
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// apiError drains a non-2xx response into an APIError, decoding the
// daemon's {"error": ...} body when present.
func apiError(resp *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	msg := string(bytes.TrimSpace(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

// do issues one request with the retry loop: retryable statuses and
// transport errors back off and go again, everything else returns.
// The response body is open on success; the caller closes it.
func (c *Client) do(ctx context.Context, method, path string, body []byte, header http.Header) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt-1, retryAfterOf(lastErr)); err != nil {
				return nil, err
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			c.logf("simclient: %s %s attempt %d: %v", method, path, attempt+1, err)
			continue
		}
		if retryableStatus(resp.StatusCode) {
			ra := retryAfter(resp)
			ae := apiError(resp) // drains and closes semantics: body fully read
			resp.Body.Close()
			lastErr = &retryableError{err: ae, retryAfter: ra}
			c.logf("simclient: %s %s attempt %d: %d (retry-after %s)", method, path, attempt+1, ae.Status, ra)
			continue
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("simclient: no attempts made")
	}
	var re *retryableError
	if errors.As(lastErr, &re) {
		lastErr = re.err
	}
	return nil, fmt.Errorf("simclient: %s %s: giving up after %d attempts: %w", method, path, c.maxAttempts(), lastErr)
}

// retryableError carries the daemon's Retry-After through the loop.
type retryableError struct {
	err        error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func retryAfterOf(err error) time.Duration {
	var re *retryableError
	if errors.As(err, &re) {
		return re.retryAfter
	}
	return 0
}

// Submit posts a job envelope. The Idempotency-Key header carries the
// envelope hash, so resubmitting identical bytes attaches to the live
// (or journal-recovered) job instead of starting a duplicate.
func (c *Client) Submit(ctx context.Context, envelope []byte) (*JobStatus, error) {
	header := http.Header{
		"Content-Type":    {"application/json"},
		"Idempotency-Key": {EnvelopeHash(envelope)},
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", envelope, header)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("simclient: decode submit response: %w", err)
	}
	return &st, nil
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, jobID string) (*JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("simclient: decode status: %w", err)
	}
	return &st, nil
}

// Wait polls until the job reaches a terminal state.
func (c *Client) Wait(ctx context.Context, jobID string) (*JobStatus, error) {
	t := time.NewTicker(c.pollInterval())
	defer t.Stop()
	for {
		st, err := c.Status(ctx, jobID)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Result fetches a finished job's result body, byte-verbatim.
func (c *Client) Result(ctx context.Context, jobID string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/result", nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Run is the whole resilient flow: submit, wait, fetch the result. A
// job lost to a daemon crash (404 on poll, connection failures, or a
// daemon-initiated cancellation) is resubmitted idempotently — the
// result bytes are content-addressed on the daemon side, so the
// eventual body is byte-identical to an uninterrupted run. A job that
// fails on its own terms is returned as an error immediately.
func (c *Client) Run(ctx context.Context, envelope []byte) ([]byte, *JobStatus, error) {
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt-1, 0); err != nil {
				return nil, nil, err
			}
			c.logf("simclient: resubmitting after: %v", lastErr)
		}
		st, err := c.Submit(ctx, envelope)
		if err != nil {
			return nil, nil, err
		}
		st, err = c.Wait(ctx, st.ID)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = err // crash window: job vanished or daemon unreachable
			continue
		}
		switch st.State {
		case StateDone:
			body, rerr := c.Result(ctx, st.ID)
			if rerr != nil {
				if ctx.Err() != nil {
					return nil, nil, ctx.Err()
				}
				lastErr = rerr
				continue
			}
			return body, st, nil
		case StateFailed:
			return nil, st, fmt.Errorf("simclient: job %s failed: %s", st.ID, st.Error)
		default: // canceled by the daemon (shutdown), not by this client
			lastErr = fmt.Errorf("simclient: job %s canceled by daemon", st.ID)
		}
	}
	return nil, nil, fmt.Errorf("simclient: run: giving up after %d attempts: %w", c.maxAttempts(), lastErr)
}
