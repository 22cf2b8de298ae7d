package stats

import (
	"fmt"
	"math"

	"repro/internal/snapbin"
)

// Window is a fixed-capacity sliding window of float64 samples with O(1)
// insertion. It backs the engine's 1-second power averages, whose
// samples mostly repeat the previous step's bits, so it stores runs of
// equal bits instead of one slot per sample.
//
// The runs follow the storage order of a dense ring of capacity slots
// that is written append-first, then from its head onward. pos counts
// the slots written in the current lap: cur holds slots [0, pos), and
// once the window is full, old[oldAt:] holds the previous lap's slots
// [pos, capacity), whose front each push consumes. When a lap is
// written, it becomes old. Every query walks cur then old, so Mean and
// SaveState see exactly the sequence the dense ring holds, and Mean's
// bits equal its sum in that order.
type Window struct {
	cur, old []run
	oldAt    int
	pos      int
	n        int // samples held
	capacity int
	full     bool
	// sum memoizes the storage-order sum Mean computes; a push that
	// evicts a sample of the new sample's bits leaves the stored
	// sequence, and so the sum, unchanged.
	sum   float64
	sumOK bool
}

// run is the slots up to end (exclusive) that follow the previous run,
// all holding the float64 with the given bits. cur's last run is open:
// pos stands in for its end.
type run struct {
	bits uint64
	end  int
}

// NewWindow returns a window holding up to capacity samples.
// It panics if capacity < 1, since a zero-length window is meaningless.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic("stats: window capacity must be >= 1")
	}
	return &Window{capacity: capacity}
}

// appendRun appends r to rs. A list never holds more runs than the
// window has slots, so its storage grows to at most capacity runs.
func (w *Window) appendRun(rs []run, r run) []run {
	if len(rs) == cap(rs) {
		grown := make([]run, len(rs), min(max(2*len(rs), 4), w.capacity))
		copy(grown, rs)
		rs = grown
	}
	return append(rs, r)
}

// Push appends a sample, evicting the oldest when full.
func (w *Window) Push(x float64) {
	b := math.Float64bits(x)
	if w.pos == w.capacity {
		// The lap is written: close its last run, and it becomes old.
		w.cur[len(w.cur)-1].end = w.capacity
		w.cur, w.old, w.oldAt, w.pos = w.old[:0], w.cur, 0, 0
	}
	if w.n < w.capacity {
		w.n++
		w.sumOK = false
	} else {
		w.full = true
		r := &w.old[w.oldAt]
		if r.bits != b {
			w.sumOK = false
		}
		if r.end == w.pos+1 {
			w.oldAt++
		}
	}
	// Steady input extends the open run by advancing pos alone.
	if k := len(w.cur) - 1; k < 0 || w.cur[k].bits != b {
		if k >= 0 {
			w.cur[k].end = w.pos
		}
		w.cur = w.appendRun(w.cur, run{bits: b})
	}
	w.pos++
}

// each calls f with every run's bits and slot count, in storage order.
func (w *Window) each(f func(bits uint64, n int)) {
	start := 0
	for k, r := range w.cur {
		if k == len(w.cur)-1 {
			r.end = w.pos
		}
		f(r.bits, r.end-start)
		start = r.end
	}
	start = w.pos
	for _, r := range w.old[w.oldAt:] {
		f(r.bits, r.end-start)
		start = r.end
	}
}

// Mean returns the mean of the samples currently in the window: their
// sum in storage order, as over a dense ring, divided by their count.
func (w *Window) Mean() (float64, error) {
	if w.n == 0 {
		return 0, ErrEmpty
	}
	if !w.sumOK {
		// each's walk, spelled out: a callback per run costs more than
		// the adds of short runs.
		s, slot := 0.0, 0
		for k, r := range w.cur {
			if k == len(w.cur)-1 {
				r.end = w.pos
			}
			for v := math.Float64frombits(r.bits); slot < r.end; slot++ {
				s += v
			}
		}
		slot = w.pos
		for _, r := range w.old[w.oldAt:] {
			for v := math.Float64frombits(r.bits); slot < r.end; slot++ {
				s += v
			}
		}
		w.sum, w.sumOK = s, true
	}
	return w.sum / float64(w.n), nil
}

// SaveState serializes the window's contents: ring head, wrap flag and
// the length-prefixed samples in storage order.
func (w *Window) SaveState(sw *snapbin.Writer) {
	head := 0
	if w.full {
		head = w.pos % w.capacity
	}
	sw.PutInt(head)
	sw.PutBool(w.full)
	sw.PutU64(uint64(w.n))
	w.each(func(bits uint64, n int) { sw.PutF64Run(math.Float64frombits(bits), n) })
}

// LoadState restores state saved by SaveState into a window of the
// same capacity, reusing its run storage. On error the window is left
// empty.
func (w *Window) LoadState(r *snapbin.Reader) error {
	head := r.Int()
	full := r.Bool()
	n := r.U64()
	if err := r.Err(); err != nil {
		return fmt.Errorf("stats: window: %w", err)
	}
	if n > uint64(w.capacity) {
		return fmt.Errorf("stats: window holds %d samples, capacity is %d", n, w.capacity)
	}
	// Push writes at head only once the window is at capacity; before
	// that the ring has not turned, so head is 0 and full is false.
	if head < 0 || head >= w.capacity || (int(n) < w.capacity && (head != 0 || full)) {
		return fmt.Errorf("stats: window ring head %d (full %t) is invalid for %d of %d samples", head, full, n, w.capacity)
	}
	// A ring at capacity with head 0 has written its whole lap.
	pos := int(n)
	if head > 0 {
		pos = head
	}
	cur, old := w.cur[:0], w.old[:0]
	for i := 0; i < int(n); i++ {
		rs := &old
		if i < pos {
			rs = &cur
		}
		if b, k := r.U64(), len(*rs)-1; k >= 0 && (*rs)[k].bits == b {
			(*rs)[k].end = i + 1
		} else {
			*rs = w.appendRun(*rs, run{b, i + 1})
		}
	}
	w.cur, w.old = cur, old
	if err := r.Err(); err != nil {
		w.Reset()
		return fmt.Errorf("stats: window: %w", err)
	}
	w.oldAt, w.pos, w.n, w.full, w.sumOK = 0, pos, int(n), full, false
	return nil
}

// Reset empties the window, retaining its run storage.
func (w *Window) Reset() {
	w.cur, w.old, w.oldAt = w.cur[:0], w.old[:0], 0
	w.pos, w.n, w.full, w.sumOK = 0, 0, false, false
}
