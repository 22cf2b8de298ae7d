package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Event is one server-sent event on a job's feed.
type Event struct {
	// ID is the monotonically increasing per-job event id (the SSE
	// `id:` field, usable as Last-Event-ID on reconnect).
	ID int
	// Type is the SSE `event:` field: "cell", "sample", "job" or "end".
	Type string
	// Data is the JSON payload (the SSE `data:` field).
	Data []byte
}

// WriteTo renders the event in SSE wire format:
//
//	id: <n>
//	event: <type>
//	data: <json>
//
// followed by a blank line.
func (e Event) WriteTo(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, e.Data)
}

// subBuffer is each subscriber's channel depth; a consumer further
// behind than this either drops samples or (for retained events) is
// disconnected to resync via replay.
const subBuffer = 64

// Broker fans a job's event stream out to any number of SSE
// subscribers. Lifecycle events (retain=true: cell completions, job
// transitions, the terminal event) are kept and replayed to late
// subscribers, so attaching after completion still yields the full
// history; sample events are fire-and-forget and never retained.
//
// Delivery never blocks the publisher: a subscriber too slow for a
// sample event just misses it (counted in Dropped), and one too slow
// for a retained event is disconnected — on reconnect the replay
// resynchronizes it.
type Broker struct {
	mu       sync.Mutex
	retained []Event
	subs     map[chan Event]struct{}
	nextID   int
	closed   bool

	dropped atomic.Uint64
}

// NewBroker builds an open broker.
func NewBroker() *Broker {
	return &Broker{subs: make(map[chan Event]struct{})}
}

// Publish emits one event to all subscribers, retaining it for replay
// when retain is true. Publishing to a closed broker is a no-op.
func (b *Broker) Publish(typ string, data []byte, retain bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.nextID++
	ev := Event{ID: b.nextID, Type: typ, Data: data}
	if retain {
		b.retained = append(b.retained, ev)
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			if retain {
				delete(b.subs, ch)
				close(ch)
			} else {
				b.dropped.Add(1)
			}
		}
	}
}

// Subscribe registers a consumer: replay holds every retained event so
// far (deliver it before reading ch), ch carries subsequent events and
// is closed when the broker closes or the consumer falls behind on a
// retained event, and cancel deregisters (idempotent, safe after
// close).
func (b *Broker) Subscribe() (replay []Event, ch chan Event, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay = append([]Event(nil), b.retained...)
	ch = make(chan Event, subBuffer)
	if b.closed {
		close(ch)
		return replay, ch, func() {}
	}
	b.subs[ch] = struct{}{}
	return replay, ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
	}
}

// Close ends the stream: all subscriber channels are closed and future
// Publish calls are dropped. Replay of retained events remains
// available to late subscribers. Idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		close(ch)
	}
	b.subs = nil
}

// cellEvent is the "cell" SSE payload: one completed cell.
type cellEvent struct {
	Index   int                 `json:"index"`
	Key     string              `json:"key"`
	Origin  Origin              `json:"origin"`
	Metrics map[string]*float64 `json:"metrics"`
}

// sampleEvent is the "sample" SSE payload: one observer sample of a
// computing cell.
type sampleEvent struct {
	Index  int    `json:"index"`
	Sample Sample `json:"sample"`
}

// marshalCellEvent renders a cell completion, mapping non-finite
// metric values (NaN frame rates on workloads without frames) to JSON
// null — the result body's CSV/JSON encoders have their own contract;
// SSE is telemetry and must simply stay well-formed JSON.
func marshalCellEvent(index int, key uint64, origin Origin, metrics map[string]float64) ([]byte, error) {
	safe := make(map[string]*float64, len(metrics))
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			safe[k] = nil
			continue
		}
		v := v
		safe[k] = &v
	}
	return json.Marshal(cellEvent{Index: index, Key: fmt.Sprintf("%016x", key), Origin: origin, Metrics: safe})
}

// marshalSampleEvent renders one observer sample.
func marshalSampleEvent(index int, smp Sample) ([]byte, error) {
	return json.Marshal(sampleEvent{Index: index, Sample: smp})
}
