package simd

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestBrokerReplayAndLive pins the fanout contract: retained events
// replay to late subscribers in publish order, live subscribers see
// events as published, and Close ends every stream.
func TestBrokerReplayAndLive(t *testing.T) {
	b := NewBroker()
	b.Publish("cell", []byte(`{"index":0}`), true)
	b.Publish("sample", []byte(`{"t":1}`), false) // not retained

	replay, ch, cancel := b.Subscribe()
	defer cancel()
	if len(replay) != 1 || replay[0].Type != "cell" || replay[0].ID != 1 {
		t.Fatalf("replay: %+v", replay)
	}
	b.Publish("cell", []byte(`{"index":1}`), true)
	ev := <-ch
	if ev.Type != "cell" || ev.ID != 3 || string(ev.Data) != `{"index":1}` {
		t.Fatalf("live event: %+v", ev)
	}
	b.Close()
	if _, open := <-ch; open {
		t.Fatal("channel not closed on broker close")
	}
	// Replay survives close for late subscribers.
	replay2, ch2, cancel2 := b.Subscribe()
	defer cancel2()
	if len(replay2) != 2 {
		t.Fatalf("post-close replay: %d events", len(replay2))
	}
	if _, open := <-ch2; open {
		t.Fatal("post-close subscription channel not closed")
	}
	// Publishing after close is a silent no-op.
	b.Publish("cell", []byte(`{}`), true)
}

// TestBrokerSlowSubscriber pins the non-blocking delivery rules: a
// full subscriber drops samples (counted) but is disconnected on a
// retained event so it can resync via replay.
func TestBrokerSlowSubscriber(t *testing.T) {
	b := NewBroker()
	_, ch, cancel := b.Subscribe()
	defer cancel()
	for i := 0; i < subBuffer; i++ {
		b.Publish("sample", []byte(`{}`), false)
	}
	// Buffer is now full: one more sample is dropped, stream survives.
	b.Publish("sample", []byte(`{}`), false)
	if got := b.dropped.Load(); got != 1 {
		t.Fatalf("dropped: %d, want 1", got)
	}
	// A retained event to a full subscriber disconnects it instead.
	b.Publish("cell", []byte(`{}`), true)
	for i := 0; i < subBuffer; i++ {
		<-ch
	}
	if _, open := <-ch; open {
		t.Fatal("lagging subscriber not disconnected on retained event")
	}
	cancel() // safe after disconnect
}

// TestEventWireFormat pins the SSE rendering.
func TestEventWireFormat(t *testing.T) {
	var buf bytes.Buffer
	Event{ID: 7, Type: "cell", Data: []byte(`{"a":1}`)}.WriteTo(&buf)
	want := "id: 7\nevent: cell\ndata: {\"a\":1}\n\n"
	if buf.String() != want {
		t.Fatalf("wire format:\n%q\nwant\n%q", buf.String(), want)
	}
}

// TestMarshalCellEventNaN pins the telemetry sanitization: non-finite
// metric values become JSON null, never invalid JSON.
func TestMarshalCellEventNaN(t *testing.T) {
	data, err := marshalCellEvent(3, 0xab, OriginComputed, map[string]float64{
		"fps":  math.NaN(),
		"inf":  math.Inf(-1),
		"peak": 61.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Index   int                 `json:"index"`
		Key     string              `json:"key"`
		Origin  string              `json:"origin"`
		Metrics map[string]*float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("cell event is not valid JSON: %v\n%s", err, data)
	}
	if decoded.Index != 3 || decoded.Key != "00000000000000ab" || decoded.Origin != "computed" {
		t.Errorf("decoded: %+v", decoded)
	}
	if decoded.Metrics["fps"] != nil || decoded.Metrics["inf"] != nil {
		t.Error("non-finite metrics not nulled")
	}
	if v := decoded.Metrics["peak"]; v == nil || *v != 61.5 {
		t.Error("finite metric mangled")
	}
	if strings.Contains(string(data), "NaN") {
		t.Errorf("raw NaN leaked into payload: %s", data)
	}
}
