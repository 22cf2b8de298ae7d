// Package dvfs models dynamic voltage and frequency scaling domains:
// operating performance point (OPP) tables, per-domain frequency
// selection with thermal caps, transition latency, and residency
// accounting used by the paper's frequency-usage figures.
package dvfs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/snapbin"
)

// OPP is one operating performance point of a domain.
type OPP struct {
	// FreqHz is the clock frequency in Hz.
	FreqHz uint64
	// VoltageV is the supply voltage at this point in volts.
	VoltageV float64
}

// Table is an immutable, ascending-frequency OPP table.
type Table struct {
	opps []OPP
}

// NewTable builds a table from points, sorting by frequency. It rejects
// empty tables, duplicate frequencies, and non-positive values.
func NewTable(points ...OPP) (*Table, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("dvfs: empty OPP table")
	}
	opps := append([]OPP(nil), points...)
	sort.Slice(opps, func(i, j int) bool { return opps[i].FreqHz < opps[j].FreqHz })
	for i, p := range opps {
		if p.FreqHz == 0 {
			return nil, fmt.Errorf("dvfs: OPP %d has zero frequency", i)
		}
		if p.VoltageV <= 0 || math.IsNaN(p.VoltageV) {
			return nil, fmt.Errorf("dvfs: OPP %d (%d Hz) has invalid voltage %v", i, p.FreqHz, p.VoltageV)
		}
		if i > 0 && p.FreqHz == opps[i-1].FreqHz {
			return nil, fmt.Errorf("dvfs: duplicate OPP frequency %d Hz", p.FreqHz)
		}
		if i > 0 && p.VoltageV < opps[i-1].VoltageV {
			return nil, fmt.Errorf("dvfs: voltage must be non-decreasing with frequency (OPP %d)", i)
		}
	}
	return &Table{opps: opps}, nil
}

// MustTable is NewTable that panics on error; for static platform tables.
func MustTable(points ...OPP) *Table {
	t, err := NewTable(points...)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of OPPs.
func (t *Table) Len() int { return len(t.opps) }

// At returns the i-th OPP in ascending frequency order.
func (t *Table) At(i int) OPP { return t.opps[i] }

// Min returns the lowest-frequency OPP.
func (t *Table) Min() OPP { return t.opps[0] }

// Max returns the highest-frequency OPP.
func (t *Table) Max() OPP { return t.opps[len(t.opps)-1] }

// Frequencies returns all frequencies ascending.
func (t *Table) Frequencies() []uint64 {
	out := make([]uint64, len(t.opps))
	for i, p := range t.opps {
		out[i] = p.FreqHz
	}
	return out
}

// IndexOf returns the index of the OPP with exactly freqHz, or -1.
func (t *Table) IndexOf(freqHz uint64) int {
	for i, p := range t.opps {
		if p.FreqHz == freqHz {
			return i
		}
	}
	return -1
}

// Floor returns the highest OPP with frequency <= freqHz. If freqHz is
// below the table minimum, the minimum OPP is returned.
func (t *Table) Floor(freqHz uint64) OPP {
	best := t.opps[0]
	for _, p := range t.opps {
		if p.FreqHz <= freqHz {
			best = p
		} else {
			break
		}
	}
	return best
}

// Ceil returns the lowest OPP with frequency >= freqHz. If freqHz is
// above the table maximum, the maximum OPP is returned.
func (t *Table) Ceil(freqHz uint64) OPP {
	for _, p := range t.opps {
		if p.FreqHz >= freqHz {
			return p
		}
	}
	return t.Max()
}

// Domain is one frequency domain (a CPU cluster or a GPU): a table plus
// the current and capped frequency, transition latency, and residency
// accounting.
type Domain struct {
	name    string
	table   *Table
	current uint64
	capHz   uint64 // thermal cap; 0 means uncapped

	transitionLatencyS float64
	pendingFreq        uint64
	pendingUntil       float64
	transitions        int

	// Residency is a flat per-OPP accumulator indexed by table position
	// (currentIdx caches the current frequency's index, currentOPP the
	// full point): Advance and the power model run once per domain per
	// simulation step, and a map increment plus a table scan there were
	// among the hottest non-arithmetic costs in the whole step path.
	// The map views the figures consume are built on demand.
	residency  []float64
	currentIdx int
	currentOPP OPP
}

// NewDomain creates a domain starting at the table's minimum frequency.
func NewDomain(name string, table *Table, transitionLatencyS float64) (*Domain, error) {
	if table == nil {
		return nil, fmt.Errorf("dvfs: domain %q needs an OPP table", name)
	}
	if transitionLatencyS < 0 {
		return nil, fmt.Errorf("dvfs: domain %q transition latency must be >= 0", name)
	}
	return &Domain{
		name:               name,
		table:              table,
		current:            table.Min().FreqHz,
		currentOPP:         table.Min(),
		transitionLatencyS: transitionLatencyS,
		residency:          make([]float64, table.Len()),
	}, nil
}

// setCurrent switches the running frequency, keeping the residency
// index and OPP caches in step. freqHz must be a table frequency
// (every caller clamps through Table.Floor first).
func (d *Domain) setCurrent(freqHz uint64) {
	d.current = freqHz
	d.currentIdx = d.table.IndexOf(freqHz)
	d.currentOPP = d.table.At(d.currentIdx)
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// Table returns the domain's OPP table.
func (d *Domain) Table() *Table { return d.table }

// CurrentHz returns the frequency the domain is running at now.
func (d *Domain) CurrentHz() uint64 { return d.current }

// CurrentOPP returns the full OPP the domain is running at.
func (d *Domain) CurrentOPP() OPP { return d.currentOPP }

// Transitions reports how many completed frequency changes occurred.
func (d *Domain) Transitions() int { return d.transitions }

// SetCap imposes a thermal frequency cap (Hz); 0 removes the cap.
// Requests above the cap are clamped. If the domain currently runs above
// the new cap, it is clamped immediately (thermal throttles bypass
// transition latency, as hardware throttles do).
func (d *Domain) SetCap(capHz uint64) {
	d.capHz = capHz
	if capHz != 0 && d.current > capHz {
		d.setCurrent(d.table.Floor(capHz).FreqHz)
		d.pendingFreq = 0
		d.transitions++
	}
	if capHz != 0 && d.pendingFreq > capHz {
		d.pendingFreq = d.table.Floor(capHz).FreqHz
	}
}

// Cap returns the active cap (0 when uncapped).
func (d *Domain) Cap() uint64 { return d.capHz }

// effectiveTarget clamps a requested frequency to table and cap.
func (d *Domain) effectiveTarget(freqHz uint64) uint64 {
	if d.capHz != 0 && freqHz > d.capHz {
		freqHz = d.capHz
	}
	return d.table.Floor(freqHz).FreqHz
}

// Request asks the domain to move to freqHz at time nowS. The change
// completes after the transition latency; a newer request supersedes a
// pending one. Returns the frequency actually targeted after clamping.
func (d *Domain) Request(nowS float64, freqHz uint64) uint64 {
	target := d.effectiveTarget(freqHz)
	if target == d.current && d.pendingFreq == 0 {
		return target
	}
	if d.transitionLatencyS == 0 {
		if target != d.current {
			d.setCurrent(target)
			d.transitions++
		}
		d.pendingFreq = 0
		return target
	}
	d.pendingFreq = target
	d.pendingUntil = nowS + d.transitionLatencyS
	return target
}

// Advance accounts dt seconds of residency at the current frequency and
// completes any pending transition whose latency has elapsed by the end
// of the interval. Call once per simulation step.
func (d *Domain) Advance(nowS, dt float64) {
	d.residency[d.currentIdx] += dt
	if d.pendingFreq != 0 && nowS+dt+1e-12 >= d.pendingUntil {
		if d.pendingFreq != d.current {
			d.setCurrent(d.pendingFreq)
			d.transitions++
		}
		d.pendingFreq = 0
	}
}

// ResidencyShare returns each OPP frequency's share of total residency,
// including zero entries for unused OPPs so histograms have stable bins.
func (d *Domain) ResidencyShare() map[uint64]float64 {
	total := 0.0
	for _, s := range d.residency {
		total += s
	}
	out := make(map[uint64]float64, d.table.Len())
	for i, f := range d.table.Frequencies() {
		if total == 0 {
			out[f] = 0
		} else {
			out[f] = d.residency[i] / total
		}
	}
	return out
}

// SaveState serializes the domain's mutable state: current frequency,
// cap, pending transition, counters, and per-OPP residency. The slot
// after the cap held a minimum-frequency floor, which no domain sets
// any more; it stays in the format, always 0.
func (d *Domain) SaveState(w *snapbin.Writer) {
	w.PutU64(d.current)
	w.PutU64(d.capHz)
	w.PutU64(0)
	w.PutU64(d.pendingFreq)
	w.PutF64(d.pendingUntil)
	w.PutInt(d.transitions)
	w.PutF64s(d.residency)
}

// LoadState restores state saved by SaveState into a domain built from
// the same table. Restoring through setCurrent keeps the residency
// index and OPP caches coherent.
func (d *Domain) LoadState(r *snapbin.Reader) error {
	current := r.U64()
	capHz := r.U64()
	floorHz := r.U64()
	pendingFreq := r.U64()
	pendingUntil := r.F64()
	transitions := r.Int()
	r.F64sInto(d.residency)
	if err := r.Err(); err != nil {
		return fmt.Errorf("dvfs: domain %q: %w", d.name, err)
	}
	if d.table.IndexOf(current) < 0 {
		return fmt.Errorf("dvfs: domain %q: restored frequency %d Hz is not a table OPP", d.name, current)
	}
	if floorHz != 0 {
		return fmt.Errorf("dvfs: domain %q: restored frequency floor %d Hz, but domains have none", d.name, floorHz)
	}
	if pendingFreq != 0 && d.table.IndexOf(pendingFreq) < 0 {
		return fmt.Errorf("dvfs: domain %q: restored pending frequency %d Hz is not a table OPP", d.name, pendingFreq)
	}
	d.setCurrent(current)
	d.capHz = capHz
	d.pendingFreq = pendingFreq
	d.pendingUntil = pendingUntil
	d.transitions = transitions
	return nil
}

// MHz formats a frequency in Hz as a MHz label ("510MHz"); used as the
// histogram bin label in the residency figures.
func MHz(freqHz uint64) string {
	return fmt.Sprintf("%dMHz", freqHz/1_000_000)
}
