// Package sched models the OS scheduler view the paper's governor needs:
// processes with cycle demands placed on the big or LITTLE cluster,
// proportional-share execution under a per-cluster cycle capacity,
// real-time registration (processes the application-aware governor must
// not penalize), cluster migration, and per-process attribution of the
// cluster's busy cycles for power accounting.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/snapbin"
)

// ClusterID identifies a CPU cluster.
type ClusterID int

// The two clusters of a big.LITTLE platform.
const (
	Little ClusterID = iota
	Big
	numClusters
)

// String names the cluster.
func (c ClusterID) String() string {
	switch c {
	case Little:
		return "little"
	case Big:
		return "big"
	default:
		return fmt.Sprintf("cluster(%d)", int(c))
	}
}

// Clusters lists both clusters.
func Clusters() []ClusterID { return []ClusterID{Little, Big} }

// Task is one schedulable process.
type Task struct {
	// PID is the unique process ID.
	PID int
	// Name labels the process in traces.
	Name string
	// DemandHz is the desired execution rate in cycles per second.
	DemandHz float64
	// Threads bounds per-process parallelism: a process can use at most
	// Threads cores simultaneously. Must be >= 1.
	Threads int
	// Cluster is the current placement.
	Cluster ClusterID
	// RealTime marks processes registered with the governor so they are
	// never chosen as migration victims (Section IV-B).
	RealTime bool
}

func (t Task) validate() error {
	if t.DemandHz < 0 || math.IsNaN(t.DemandHz) {
		return fmt.Errorf("sched: task %d demand must be >= 0, got %v", t.PID, t.DemandHz)
	}
	if t.Threads < 1 {
		return fmt.Errorf("sched: task %d needs >= 1 thread, got %d", t.PID, t.Threads)
	}
	if t.Cluster != Little && t.Cluster != Big {
		return fmt.Errorf("sched: task %d has invalid cluster %d", t.PID, t.Cluster)
	}
	return nil
}

// Capacity describes one cluster's execution resources for a step.
type Capacity struct {
	// FreqHz is the cluster clock.
	FreqHz uint64
	// Cores is the number of online cores.
	Cores int
}

// TotalHz is the aggregate cycle capacity (cores × frequency).
func (c Capacity) TotalHz() float64 { return float64(c.Cores) * float64(c.FreqHz) }

// Scheduler holds the task set.
type Scheduler struct {
	tasks      map[int]*Task
	order      []int // stable PID iteration order
	migrations int
	epoch      uint64 // bumped whenever the task-set layout changes
}

// New creates an empty scheduler.
func New() *Scheduler {
	return &Scheduler{tasks: make(map[int]*Task)}
}

// Add registers a task. Duplicate PIDs are rejected.
func (s *Scheduler) Add(t Task) error {
	if err := t.validate(); err != nil {
		return err
	}
	if _, ok := s.tasks[t.PID]; ok {
		return fmt.Errorf("sched: duplicate PID %d", t.PID)
	}
	cp := t
	s.tasks[t.PID] = &cp
	s.order = append(s.order, t.PID)
	sort.Ints(s.order)
	s.epoch++
	return nil
}

// Epoch returns a counter bumped whenever the task-set layout changes
// (Add, not demand/placement updates). Callers caching
// per-task state, such as the sim layer's task-pointer cache, key their
// invalidation on it.
func (s *Scheduler) Epoch() uint64 { return s.epoch }

// Len reports how many tasks the scheduler holds.
func (s *Scheduler) Len() int { return len(s.order) }

// Slot returns pid's position in the scheduler's ascending-PID
// iteration order — the layout Assignment stores its flat grants in —
// or -1 for unknown PIDs. Slots stay stable until the task-set layout
// changes (watch Epoch).
func (s *Scheduler) Slot(pid int) int {
	for i, p := range s.order {
		if p == pid {
			return i
		}
	}
	return -1
}

// TaskRef returns a live view of the task with the given PID. The
// pointer stays valid — and tracks demand and cluster changes — until
// the task-set layout changes (watch Epoch). The engine writes each
// step's demand through it; placement changes go through Migrate, which
// counts them.
func (s *Scheduler) TaskRef(pid int) (*Task, bool) {
	t, ok := s.tasks[pid]
	return t, ok
}

// Migrate moves a task to the given cluster. Migrating to the current
// cluster is a no-op that does not count.
func (s *Scheduler) Migrate(pid int, to ClusterID) error {
	t, ok := s.tasks[pid]
	if !ok {
		return fmt.Errorf("sched: unknown PID %d", pid)
	}
	if to != Little && to != Big {
		return fmt.Errorf("sched: invalid cluster %d", to)
	}
	if t.Cluster == to {
		return nil
	}
	t.Cluster = to
	s.migrations++
	return nil
}

// Migrations reports how many cluster moves occurred.
func (s *Scheduler) Migrations() int { return s.migrations }

// SaveState serializes the scheduler's mutable state: each task's
// demand, placement and real-time flag (in the stable ascending-PID
// order), plus the migration counter. The task-set layout itself is
// construction state and is not serialized — LoadState targets a
// scheduler holding the same task set.
func (s *Scheduler) SaveState(w *snapbin.Writer) {
	w.PutInt(len(s.order))
	for _, pid := range s.order {
		t := s.tasks[pid]
		w.PutInt(pid)
		w.PutF64(t.DemandHz)
		w.PutInt(int(t.Cluster))
		w.PutBool(t.RealTime)
	}
	w.PutInt(s.migrations)
}

// LoadState restores state saved by SaveState into a scheduler with an
// identical task-set layout. Task fields are written through the live
// pointers, so sim-layer task caches keyed on Epoch stay valid.
func (s *Scheduler) LoadState(r *snapbin.Reader) error {
	n := r.Int()
	if r.Err() == nil && n != len(s.order) {
		return fmt.Errorf("sched: restored task count %d does not match %d", n, len(s.order))
	}
	for _, pid := range s.order {
		gotPID := r.Int()
		demand := r.F64()
		cluster := ClusterID(r.Int())
		rt := r.Bool()
		if r.Err() != nil {
			break
		}
		if gotPID != pid {
			return fmt.Errorf("sched: restored PID %d does not match %d", gotPID, pid)
		}
		if cluster != Little && cluster != Big {
			return fmt.Errorf("sched: restored cluster %d for PID %d is invalid", cluster, pid)
		}
		t := s.tasks[pid]
		t.DemandHz = demand
		t.Cluster = cluster
		t.RealTime = rt
	}
	migrations := r.Int()
	if err := r.Err(); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	s.migrations = migrations
	return nil
}

// Assignment is a reusable scheduling result. Grants are stored in
// flat slices parallel to the scheduler's ascending-PID order
// (Scheduler.Slot maps a PID to its slot); they are reallocated only
// when the task count changes, so repeated AssignInto calls on a
// stable task set perform zero allocations. The zero value is ready to
// use.
type Assignment struct {
	achievedHz []float64
	busyShare  []float64
	utilCores  [numClusters]float64
}

// AchievedHzAt returns the granted execution rate of the task at the
// given slot of the scheduler's ascending-PID order (Scheduler.Slot);
// out-of-range slots report 0.
func (a *Assignment) AchievedHzAt(slot int) float64 {
	if slot < 0 || slot >= len(a.achievedHz) {
		return 0
	}
	return a.achievedHz[slot]
}

// BusyShareAt returns the task's fraction of its cluster's busy cycles
// at the given slot (0 for out-of-range slots); the power model
// attributes per-process dynamic power with it.
func (a *Assignment) BusyShareAt(slot int) float64 {
	if slot < 0 || slot >= len(a.busyShare) {
		return 0
	}
	return a.busyShare[slot]
}

// UtilCores returns the cluster's total busy capacity in units of cores.
func (a *Assignment) UtilCores(c ClusterID) float64 {
	if c < 0 || c >= numClusters {
		return 0
	}
	return a.utilCores[c]
}

// AssignInto computes one step of proportional-share scheduling under
// the given per-cluster capacities into the reusable out assignment.
// Real-time tasks are served first; the remaining capacity is split
// among normal tasks proportionally to their (thread-bounded) requests.
// It allocates only when the task count changed since out's previous
// use.
func (s *Scheduler) AssignInto(little, big Capacity, out *Assignment) error {
	caps := [numClusters]Capacity{Little: little, Big: big}
	for _, c := range Clusters() {
		cap := caps[c]
		if cap.Cores < 0 || cap.FreqHz == 0 && cap.Cores > 0 {
			return fmt.Errorf("sched: invalid capacity %+v for cluster %s", cap, c)
		}
	}
	// Every task sits on one of the two clusters, so the cluster passes
	// write every slot and both utilizations: nothing needs clearing.
	if n := len(s.order); len(out.achievedHz) != n {
		out.achievedHz = make([]float64, n)
		out.busyShare = make([]float64, n)
	}
	for _, c := range Clusters() {
		s.assignCluster(c, caps[c], out)
	}
	return nil
}

// assignCluster fills out for one cluster. The accumulation order —
// real-time grants in ascending PID order, then normal grants in
// ascending PID order — is part of the result: float addition is not
// associative, and the determinism invariant pins the sums bitwise.
func (s *Scheduler) assignCluster(c ClusterID, cap Capacity, out *Assignment) {
	total := cap.TotalHz()
	freq := float64(cap.FreqHz)

	// Thread-bounded request for each task on this cluster.
	request := func(t *Task) float64 {
		bound := freq * float64(t.Threads)
		if t.DemandHz < bound {
			return t.DemandHz
		}
		return bound
	}

	// Pass 1: real-time tasks, scaled only if they alone exceed capacity.
	rtReq := 0.0
	for _, pid := range s.order {
		t := s.tasks[pid]
		if t.Cluster == c && t.RealTime {
			rtReq += request(t)
		}
	}
	rtScale := 1.0
	if rtReq > total && rtReq > 0 {
		rtScale = total / rtReq
	}
	granted := 0.0
	for i, pid := range s.order {
		t := s.tasks[pid]
		if t.Cluster != c || !t.RealTime {
			continue
		}
		g := request(t) * rtScale
		out.achievedHz[i] = g
		granted += g
	}

	// Pass 2: normal tasks share what remains proportionally.
	remaining := total - granted
	if remaining < 0 {
		remaining = 0
	}
	normReq := 0.0
	for _, pid := range s.order {
		t := s.tasks[pid]
		if t.Cluster == c && !t.RealTime {
			normReq += request(t)
		}
	}
	scale := 1.0
	if normReq > remaining {
		if normReq == 0 {
			scale = 0
		} else {
			scale = remaining / normReq
		}
	}
	for i, pid := range s.order {
		t := s.tasks[pid]
		if t.Cluster != c || t.RealTime {
			continue
		}
		g := request(t) * scale
		out.achievedHz[i] = g
		granted += g
	}

	// Utilization in cores and per-task busy share.
	if freq > 0 {
		out.utilCores[c] = granted / freq
	} else {
		out.utilCores[c] = 0
	}
	for i, pid := range s.order {
		if s.tasks[pid].Cluster != c {
			continue
		}
		if granted > 0 {
			out.busyShare[i] = out.achievedHz[i] / granted
		} else {
			out.busyShare[i] = 0
		}
	}
}

// MostPowerHungryFunc returns the PID on the given cluster with the
// highest window-averaged power among non-real-time tasks, looking each
// task's average up through avgPowerW. It returns (-1, false) when no
// eligible task exists. This is the victim-selection rule of the
// paper's governor.
func (s *Scheduler) MostPowerHungryFunc(c ClusterID, avgPowerW func(pid int) float64) (int, bool) {
	bestPID, bestW := -1, -1.0
	for _, pid := range s.order {
		t := s.tasks[pid]
		if t.Cluster != c || t.RealTime {
			continue
		}
		w := avgPowerW(pid)
		if w > bestW {
			bestPID, bestW = pid, w
		}
	}
	return bestPID, bestPID >= 0
}
