package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/snapbin"
)

// denseWindow is the ring Window replaced, one slot per sample, kept as
// the referee's oracle.
type denseWindow struct {
	buf  []float64
	head int
	full bool
}

func newDenseWindow(capacity int) *denseWindow {
	return &denseWindow{buf: make([]float64, 0, capacity)}
}

func (w *denseWindow) Push(x float64) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, x)
		return
	}
	w.full = true
	w.buf[w.head] = x
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
	}
}

func (w *denseWindow) Mean() (float64, error) {
	if len(w.buf) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range w.buf {
		sum += x
	}
	return sum / float64(len(w.buf)), nil
}

func (w *denseWindow) SaveState(sw *snapbin.Writer) {
	sw.PutInt(w.head)
	sw.PutBool(w.full)
	sw.PutF64s(w.buf)
}

// retainedBytes is the run storage a window keeps allocated.
func (w *Window) retainedBytes() int {
	return (cap(w.cur) + cap(w.old)) * int(unsafe.Sizeof(run{}))
}

// windowSources draw push sequences that stress run-length storage:
// long runs, a new value every push, signed zeros and NaNs whose bits
// differ while their values compare alike (or unordered).
var windowSources = []struct {
	name string
	draw func(rng *rand.Rand, i int) float64
}{
	{"long runs", func(rng *rand.Rand, i int) float64 { return float64((i / 97) % 3) }},
	{"seeded runs", func(rng *rand.Rand, i int) float64 {
		if rng.Intn(50) == 0 {
			return rng.Float64()
		}
		return 0.5
	}},
	{"alternating", func(rng *rand.Rand, i int) float64 { return float64(i%2) + 0.25 }},
	{"every push new", func(rng *rand.Rand, i int) float64 { return rng.NormFloat64() }},
	{"signed zeros", func(rng *rand.Rand, i int) float64 {
		return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
	}},
	{"nan payloads", func(rng *rand.Rand, i int) float64 {
		return []float64{
			math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
			1, math.Inf(1), math.Inf(-1), -2,
		}[rng.Intn(7)]
	}},
	{"rare nan", func(rng *rand.Rand, i int) float64 {
		if i%37 == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(3))
	}},
}

// sameSum reports whether two storage-order sums agree bit for bit. A
// sum holding a NaN is NaN, but Go leaves its payload to the operand
// order the compiler picks for each add (it differs under -race), so
// two NaN sums agree whatever their bits.
func sameSum(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestWindowMatchesDenseRing is Window's referee: seeded push sequences
// drive it and the dense ring side by side, and after every push both
// must agree on Mean's bits (see sameSum), the sample count, the wrap
// flag and the SaveState bytes, and a window loaded from those bytes must save
// them again. Every few pushes the window under test is swapped for its
// loaded copy, so loaded state keeps evolving too.
func TestWindowMatchesDenseRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1000} {
		for _, src := range windowSources {
			t.Run(fmt.Sprintf("cap-%d/%s", capacity, src.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)*7919 + int64(len(src.name))))
				w, oracle := NewWindow(capacity), newDenseWindow(capacity)
				var got, want snapbin.Writer
				pushes := 3*capacity + 50
				for i := 0; i < pushes; i++ {
					x := src.draw(rng, i)
					w.Push(x)
					oracle.Push(x)
					at := fmt.Sprintf("push %d (%v)", i, x)
					gm, gerr := w.Mean()
					wm, werr := oracle.Mean()
					if gerr != werr || !sameSum(gm, wm) {
						t.Fatalf("%s: Mean = %v (%x, %v), dense ring %v (%x, %v)", at, gm, math.Float64bits(gm), gerr, wm, math.Float64bits(wm), werr)
					}
					if w.n != len(oracle.buf) || w.full != oracle.full {
						t.Fatalf("%s: len %d full %t, dense ring %d %t", at, w.n, w.full, len(oracle.buf), oracle.full)
					}
					got.Reset()
					want.Reset()
					w.SaveState(&got)
					oracle.SaveState(&want)
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("%s: SaveState bytes differ from the dense ring's", at)
					}
					loaded := NewWindow(capacity)
					if err := loaded.LoadState(snapbin.NewReader(got.Bytes())); err != nil {
						t.Fatalf("%s: LoadState: %v", at, err)
					}
					var again snapbin.Writer
					loaded.SaveState(&again)
					if !bytes.Equal(again.Bytes(), want.Bytes()) {
						t.Fatalf("%s: LoadState∘SaveState changed the bytes", at)
					}
					if lm, _ := loaded.Mean(); !sameSum(lm, wm) {
						t.Fatalf("%s: loaded Mean = %v, want %v", at, lm, wm)
					}
					if i%13 == 5 {
						w = loaded
					}
					if bound := 2 * capacity * int(unsafe.Sizeof(run{})); w.retainedBytes() > bound {
						t.Fatalf("%s: window retains %d bytes of runs, bound %d", at, w.retainedBytes(), bound)
					}
				}
			})
		}
	}
}

// TestWindowRetainedBytes states run storage's bounds. Input that
// changes every push is the worst case: each slot is a run of its own,
// and cur and old each grow to at most capacity runs, 2·capacity·16
// bytes against a dense ring's capacity·8. Steady input, the engine's
// common case, keeps a few runs whatever the capacity.
func TestWindowRetainedBytes(t *testing.T) {
	const capacity = 1000
	runBytes := int(unsafe.Sizeof(run{}))
	alternating := NewWindow(capacity)
	steady := NewWindow(capacity)
	for i := 0; i < 5*capacity; i++ {
		alternating.Push(float64(i % 2))
		steady.Push(0.75)
		if i%250 == 0 {
			steady.Push(1.5)
		}
	}
	if got, bound := alternating.retainedBytes(), 2*capacity*runBytes; got > bound {
		t.Errorf("alternating input retains %d bytes of runs, bound %d", got, bound)
	}
	if got, bound := steady.retainedBytes(), 2*16*runBytes; got > bound {
		t.Errorf("steady input retains %d bytes of runs, bound %d", got, bound)
	}
}

// TestWindowMeanMemo pins when Mean's memoized sum survives a push:
// only a full window whose evicted sample has the new sample's bits
// keeps it; an append, any other eviction, LoadState and Reset drop it.
func TestWindowMeanMemo(t *testing.T) {
	w := NewWindow(3)
	mean := func() float64 {
		m, err := w.Mean()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, x := range []float64{1, 1, 1} {
		w.Push(x)
		if mean(); !w.sumOK {
			t.Fatal("Mean did not memoize its sum")
		}
	}
	w.Push(1)
	if !w.sumOK {
		t.Error("a push evicting equal bits dropped the memo")
	}
	w.Push(math.Copysign(0, -1))
	if w.sumOK {
		t.Error("a push evicting other bits kept the memo")
	}
	if got := mean(); got != 2.0/3 {
		t.Errorf("Mean = %v, want 2/3", got)
	}
	var sw snapbin.Writer
	w.SaveState(&sw)
	if err := w.LoadState(snapbin.NewReader(sw.Bytes())); err != nil || w.sumOK {
		t.Errorf("LoadState kept the memo (err %v)", err)
	}
	mean()
	if w.Reset(); w.sumOK {
		t.Error("Reset kept the memo")
	}
	w.Push(4)
	mean()
	if w.Push(4); w.sumOK {
		t.Error("an append kept the memo")
	}
}

// TestWindowLoadStateFailureEmpties pins that a window whose LoadState
// fails partway through its samples is left empty and usable.
func TestWindowLoadStateFailureEmpties(t *testing.T) {
	w := NewWindow(4)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Push(x)
	}
	var sw snapbin.Writer
	sw.PutInt(0)
	sw.PutBool(false)
	sw.PutU64(3)
	sw.PutF64(7) // two samples short
	if err := w.LoadState(snapbin.NewReader(sw.Bytes())); err == nil {
		t.Fatal("truncated samples loaded")
	}
	if w.n != 0 || w.full {
		t.Fatalf("after a failed load: len %d full %t", w.n, w.full)
	}
	w.Push(9)
	if m, err := w.Mean(); err != nil || m != 9 {
		t.Errorf("Mean after a failed load and a push = %v, %v", m, err)
	}
}
