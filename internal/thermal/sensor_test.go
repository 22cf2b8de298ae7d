package thermal

import (
	"math"
	"testing"

	"repro/internal/snapbin"
)

func sensorFixture(t *testing.T, cfg SensorConfig) (*Network, *Sensor, NodeID) {
	t.Helper()
	n := NewNetwork(300)
	id, err := n.AddNode(Node{Name: "pkg", Capacitance: 10, GAmbient: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Node = id
	s, err := NewSensor(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, s, id
}

func TestSensorValidation(t *testing.T) {
	n := NewNetwork(300)
	id, _ := n.AddNode(Node{Name: "x", Capacitance: 1, GAmbient: 1})
	cases := []SensorConfig{
		{Name: "noperiod", Node: id, PeriodS: 0},
		{Name: "badnode", Node: NodeID(9), PeriodS: 0.1},
		{Name: "baddrop", Node: id, PeriodS: 0.1, DropProb: 1.0},
		{Name: "badnoise", Node: id, PeriodS: 0.1, NoiseStdK: -1},
	}
	for _, cfg := range cases {
		if _, err := NewSensor(n, cfg); err == nil {
			t.Errorf("config %+v: expected error", cfg)
		}
	}
	if _, err := NewSensor(nil, SensorConfig{Name: "nil", PeriodS: 0.1}); err == nil {
		t.Error("expected error for nil network")
	}
}

func TestSensorReadsTruthWithoutNoise(t *testing.T) {
	n, s, id := sensorFixture(t, SensorConfig{Name: "pkg", PeriodS: 0.1})
	if err := n.SetTemperature(id, 321.5); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 321.5 {
		t.Errorf("read = %v, want 321.5", got)
	}
}

func TestSensorZeroOrderHold(t *testing.T) {
	n, s, id := sensorFixture(t, SensorConfig{Name: "pkg", PeriodS: 1.0})
	if err := n.SetTemperature(id, 310); err != nil {
		t.Fatal(err)
	}
	if h := s.Held(); h != 0 {
		t.Errorf("held before the first read = %v, want 0", h)
	}
	v0, _ := s.Read(0)
	// Change the truth mid-period; the sensor must hold its sample.
	if err := n.SetTemperature(id, 340); err != nil {
		t.Fatal(err)
	}
	if h := s.Held(); h != v0 {
		t.Errorf("held = %v, want the last read %v", h, v0)
	}
	vHeld, _ := s.Read(0.5)
	if vHeld != v0 {
		t.Errorf("mid-period read = %v, want held %v", vHeld, v0)
	}
	vNew, _ := s.Read(1.0)
	if vNew != 340 || s.Held() != 340 {
		t.Errorf("post-period read = %v, held %v, want 340", vNew, s.Held())
	}
}

func TestSensorQuantization(t *testing.T) {
	n, s, id := sensorFixture(t, SensorConfig{Name: "pkg", PeriodS: 0.1, ResolutionK: 0.5})
	if err := n.SetTemperature(id, 310.26); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(0)
	if got != 310.5 {
		t.Errorf("quantized read = %v, want 310.5", got)
	}
}

func TestSensorNoiseIsDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) float64 {
		n := NewNetwork(300)
		id, _ := n.AddNode(Node{Name: "x", Capacitance: 1, GAmbient: 1})
		s, err := NewSensor(n, SensorConfig{Name: "x", Node: id, PeriodS: 0.1, NoiseStdK: 0.4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := s.Read(0)
		return v
	}
	if mk(1) != mk(1) {
		t.Error("same seed should give same reading")
	}
	if mk(1) == mk(2) {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestSensorNoiseBounded(t *testing.T) {
	_, s, _ := sensorFixture(t, SensorConfig{Name: "pkg", PeriodS: 0.01, NoiseStdK: 0.3, Seed: 7})
	var sum, sumsq float64
	const nSamples = 2000
	for i := 0; i < nSamples; i++ {
		v, err := s.Read(float64(i) * 0.01)
		if err != nil {
			t.Fatal(err)
		}
		d := v - 300
		sum += d
		sumsq += d * d
	}
	mean := sum / nSamples
	std := math.Sqrt(sumsq/nSamples - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	if std < 0.2 || std > 0.4 {
		t.Errorf("noise std = %v, want ~0.3", std)
	}
}

func TestSensorDropRepeatsLastValue(t *testing.T) {
	n, s, id := sensorFixture(t, SensorConfig{Name: "pkg", PeriodS: 0.1, DropProb: 0.5, Seed: 3})
	if err := n.SetTemperature(id, 305); err != nil {
		t.Fatal(err)
	}
	first, _ := s.Read(0)
	if first != 305 {
		t.Fatalf("first read = %v", first)
	}
	// March the truth upward; dropped samples must repeat previous values,
	// so every reading is one of the truth values seen so far.
	drops := 0
	last := first
	for i := 1; i <= 200; i++ {
		truth := 305 + float64(i)
		if err := n.SetTemperature(id, truth); err != nil {
			t.Fatal(err)
		}
		v, _ := s.Read(float64(i) * 0.1)
		if v != truth && v != last {
			t.Fatalf("reading %v is neither truth %v nor held %v", v, truth, last)
		}
		if v == last && v != truth {
			drops++
		}
		last = v
	}
	if drops == 0 {
		t.Error("expected some drops at p=0.5")
	}
	if s.Drops() == 0 {
		t.Error("drop counter should be positive")
	}
	if s.samples == 0 {
		t.Error("sample counter should be positive")
	}
}

func TestSensorNameAndNode(t *testing.T) {
	_, s, id := sensorFixture(t, SensorConfig{Name: "tsens", PeriodS: 0.1})
	if s.Name() != "tsens" {
		t.Errorf("name = %q", s.Name())
	}
	if s.node != id {
		t.Errorf("node = %v, want %v", s.node, id)
	}
}

// TestSensorStateRoundTrip pins the sensor's snapshot codec: a sensor
// restored from saved state continues the original's reading sequence
// exactly (noise stream, dropouts, held value and counters), and a
// truncated state is rejected.
func TestSensorStateRoundTrip(t *testing.T) {
	cfg := SensorConfig{Name: "tsens", PeriodS: 0.01, NoiseStdK: 0.3, ResolutionK: 0.05, DropProb: 0.2, Seed: 11}
	net, orig, id := sensorFixture(t, cfg)
	cfg.Node = id
	fork, err := NewSensor(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetTemperature(id, 320); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for ; now < 0.5; now += 0.001 {
		if _, err := orig.Read(now); err != nil {
			t.Fatal(err)
		}
	}
	var w snapbin.Writer
	orig.SaveState(&w)
	if err := fork.LoadState(snapbin.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	for ; now < 1; now += 0.001 {
		a, err := orig.Read(now)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fork.Read(now)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("t=%.3f: restored sensor read %v, original %v", now, b, a)
		}
	}
	if orig.Drops() != fork.Drops() || orig.Drops() == 0 {
		t.Fatalf("drops: original %d, restored %d", orig.Drops(), fork.Drops())
	}
	if err := fork.LoadState(snapbin.NewReader(w.Bytes()[:10])); err == nil {
		t.Fatal("truncated sensor state should be rejected")
	}
}
