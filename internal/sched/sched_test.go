package sched

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/snapbin"
)

const ghz = 1_000_000_000

// grants is one scheduling step read back by PID.
type grants struct {
	s *Scheduler
	a *Assignment
}

func (g grants) achieved(pid int) float64 { return g.a.AchievedHzAt(g.s.Slot(pid)) }
func (g grants) share(pid int) float64    { return g.a.BusyShareAt(g.s.Slot(pid)) }
func (g grants) util(c ClusterID) float64 { return g.a.UtilCores(c) }

// assign runs one AssignInto step with 4-core clusters at the given
// clocks.
func assign(t *testing.T, s *Scheduler, littleHz, bigHz uint64) grants {
	t.Helper()
	var a Assignment
	if err := s.AssignInto(Capacity{FreqHz: littleHz, Cores: 4}, Capacity{FreqHz: bigHz, Cores: 4}, &a); err != nil {
		t.Fatal(err)
	}
	return grants{s, &a}
}

func TestClusterString(t *testing.T) {
	if Little.String() != "little" || Big.String() != "big" {
		t.Error("cluster names wrong")
	}
	if ClusterID(9).String() == "" {
		t.Error("unknown cluster should stringify")
	}
	if len(Clusters()) != 2 {
		t.Error("expected two clusters")
	}
}

func TestAddValidation(t *testing.T) {
	s := New()
	if err := s.Add(Task{PID: 1, DemandHz: -5, Threads: 1, Cluster: Big}); err == nil {
		t.Error("expected error for negative demand")
	}
	if err := s.Add(Task{PID: 1, DemandHz: 1, Threads: 0, Cluster: Big}); err == nil {
		t.Error("expected error for zero threads")
	}
	if err := s.Add(Task{PID: 1, DemandHz: 1, Threads: 1, Cluster: ClusterID(7)}); err == nil {
		t.Error("expected error for invalid cluster")
	}
	if err := s.Add(Task{PID: 1, DemandHz: 1, Threads: 1, Cluster: Big}); err != nil {
		t.Fatalf("valid add failed: %v", err)
	}
	if err := s.Add(Task{PID: 1, DemandHz: 2, Threads: 1, Cluster: Big}); err == nil {
		t.Error("expected error for duplicate PID")
	}
}

func TestTasksOrderedByPID(t *testing.T) {
	s := New()
	for _, pid := range []int{30, 10, 20} {
		_ = s.Add(Task{PID: pid, DemandHz: 1, Threads: 1, Cluster: Big})
	}
	if !slices.Equal(s.order, []int{10, 20, 30}) {
		t.Errorf("order = %v", s.order)
	}
}

func TestUndersubscribedGetsFullDemand(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 0.5 * ghz, Threads: 1, Cluster: Big})
	res := assign(t, s, 1*ghz, 2*ghz)
	if res.achieved(1) != 0.5*ghz {
		t.Errorf("achieved = %v, want full demand", res.achieved(1))
	}
	if math.Abs(res.util(Big)-0.25) > 1e-12 {
		t.Errorf("big util = %v, want 0.25 cores", res.util(Big))
	}
	if res.util(Little) != 0 {
		t.Errorf("little util = %v, want 0", res.util(Little))
	}
}

func TestThreadBoundCapsSingleThread(t *testing.T) {
	s := New()
	// One thread cannot exceed one core's worth of cycles.
	_ = s.Add(Task{PID: 1, DemandHz: 10 * ghz, Threads: 1, Cluster: Big})
	res := assign(t, s, 1*ghz, 2*ghz)
	if res.achieved(1) != 2*ghz {
		t.Errorf("achieved = %v, want one core = 2GHz", res.achieved(1))
	}
}

func TestOversubscribedProportionalShare(t *testing.T) {
	s := New()
	// Two 4-thread tasks each wanting 8 GHz on a 4x1GHz cluster.
	_ = s.Add(Task{PID: 1, DemandHz: 8 * ghz, Threads: 4, Cluster: Big})
	_ = s.Add(Task{PID: 2, DemandHz: 4 * ghz, Threads: 4, Cluster: Big})
	res := assign(t, s, 1*ghz, 1*ghz)
	// Requests bound to 4GHz each (4 threads x 1GHz): 4+4=8 > 4 capacity,
	// so each gets half its request: 2 GHz.
	if math.Abs(res.achieved(1)-2*ghz) > 1 || math.Abs(res.achieved(2)-2*ghz) > 1 {
		t.Errorf("achieved = %v / %v, want 2GHz each", res.achieved(1), res.achieved(2))
	}
	if math.Abs(res.util(Big)-4) > 1e-9 {
		t.Errorf("util = %v, want saturated 4 cores", res.util(Big))
	}
}

func TestRealTimeServedFirst(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 3 * ghz, Threads: 4, Cluster: Big, RealTime: true})
	_ = s.Add(Task{PID: 2, DemandHz: 4 * ghz, Threads: 4, Cluster: Big})
	res := assign(t, s, 1*ghz, 1*ghz)
	if math.Abs(res.achieved(1)-3*ghz) > 1 {
		t.Errorf("RT achieved = %v, want full 3GHz", res.achieved(1))
	}
	if math.Abs(res.achieved(2)-1*ghz) > 1 {
		t.Errorf("normal achieved = %v, want leftover 1GHz", res.achieved(2))
	}
}

func TestBusySharesSumToOnePerCluster(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 1 * ghz, Threads: 1, Cluster: Big})
	_ = s.Add(Task{PID: 2, DemandHz: 3 * ghz, Threads: 2, Cluster: Big})
	_ = s.Add(Task{PID: 3, DemandHz: 0.2 * ghz, Threads: 1, Cluster: Little})
	res := assign(t, s, 1*ghz, 2*ghz)
	bigSum := res.share(1) + res.share(2)
	if math.Abs(bigSum-1) > 1e-9 {
		t.Errorf("big shares sum = %v, want 1", bigSum)
	}
	if math.Abs(res.share(3)-1) > 1e-9 {
		t.Errorf("little share = %v, want 1", res.share(3))
	}
	// Task 2 did 3x the work of task 1.
	if math.Abs(res.share(2)/res.share(1)-3) > 1e-9 {
		t.Errorf("share ratio = %v, want 3", res.share(2)/res.share(1))
	}
}

func TestZeroDemandZeroUtil(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 0, Threads: 1, Cluster: Big})
	res := assign(t, s, 1*ghz, 1*ghz)
	if res.achieved(1) != 0 || res.util(Big) != 0 {
		t.Errorf("achieved=%v util=%v, want zeros", res.achieved(1), res.util(Big))
	}
}

// TestAssignMissingCapacity rejects online cores without a clock and
// a negative core count, on either cluster, and accepts an offline
// cluster.
func TestAssignMissingCapacity(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 1, Threads: 1, Cluster: Big})
	var a Assignment
	ok := Capacity{FreqHz: ghz, Cores: 4}
	for _, bad := range []Capacity{{Cores: 4}, {FreqHz: ghz, Cores: -1}} {
		if err := s.AssignInto(bad, ok, &a); err == nil {
			t.Errorf("little capacity %+v accepted", bad)
		}
		if err := s.AssignInto(ok, bad, &a); err == nil {
			t.Errorf("big capacity %+v accepted", bad)
		}
	}
	if err := s.AssignInto(Capacity{}, ok, &a); err != nil {
		t.Errorf("offline little cluster rejected: %v", err)
	}
}

func TestMigrate(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 1 * ghz, Threads: 1, Cluster: Big})
	if err := s.Migrate(1, Little); err != nil {
		t.Fatal(err)
	}
	if tk, _ := s.TaskRef(1); tk.Cluster != Little {
		t.Errorf("cluster = %v, want little", tk.Cluster)
	}
	if s.Migrations() != 1 {
		t.Errorf("migrations = %d, want 1", s.Migrations())
	}
	// No-op migration does not count.
	if err := s.Migrate(1, Little); err != nil {
		t.Fatal(err)
	}
	if s.Migrations() != 1 {
		t.Errorf("no-op migration counted: %d", s.Migrations())
	}
	if err := s.Migrate(9, Big); err == nil {
		t.Error("expected error for unknown PID")
	}
	if err := s.Migrate(1, ClusterID(5)); err == nil {
		t.Error("expected error for invalid cluster")
	}
}

func TestMigrationChangesWhereWorkRuns(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 2 * ghz, Threads: 4, Cluster: Big})
	before := assign(t, s, 1*ghz, 2*ghz)
	if before.util(Big) == 0 || before.util(Little) != 0 {
		t.Fatalf("setup: util big %v, little %v", before.util(Big), before.util(Little))
	}
	_ = s.Migrate(1, Little)
	after := assign(t, s, 1*ghz, 2*ghz)
	if after.util(Big) != 0 || after.util(Little) == 0 {
		t.Errorf("after migration util big %v, little %v", after.util(Big), after.util(Little))
	}
	// The little cluster is slower; achieved rate must not increase.
	if after.achieved(1) > before.achieved(1) {
		t.Errorf("achieved grew after migrating to slower cluster: %v -> %v",
			before.achieved(1), after.achieved(1))
	}
}

func TestMostPowerHungry(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 1, Threads: 1, Cluster: Big})
	_ = s.Add(Task{PID: 2, DemandHz: 1, Threads: 1, Cluster: Big})
	_ = s.Add(Task{PID: 3, DemandHz: 1, Threads: 1, Cluster: Big, RealTime: true})
	_ = s.Add(Task{PID: 4, DemandHz: 1, Threads: 1, Cluster: Little})
	avgW := map[int]float64{1: 0.5, 2: 1.5, 3: 9.9, 4: 7.7}
	avg := func(pid int) float64 { return avgW[pid] }
	pid, ok := s.MostPowerHungryFunc(Big, avg)
	if !ok || pid != 2 {
		t.Errorf("victim = %d (%v), want 2 (RT and other-cluster excluded)", pid, ok)
	}
	// Nothing eligible on little? PID 4 is eligible there.
	pid, ok = s.MostPowerHungryFunc(Little, avg)
	if !ok || pid != 4 {
		t.Errorf("little victim = %d", pid)
	}
	empty := New()
	if _, ok := empty.MostPowerHungryFunc(Big, avg); ok {
		t.Error("empty scheduler should report no victim")
	}
}

func TestMostPowerHungryAllRealTime(t *testing.T) {
	s := New()
	_ = s.Add(Task{PID: 1, DemandHz: 1, Threads: 1, Cluster: Big, RealTime: true})
	if _, ok := s.MostPowerHungryFunc(Big, func(int) float64 { return 5 }); ok {
		t.Error("all-RT cluster should report no victim")
	}
}

// Property: achieved never exceeds demand, capacity is never exceeded,
// and utilization stays within core count.
func TestAssignInvariantsProperty(t *testing.T) {
	f := func(demands []uint16, threads []uint8, placements []bool) bool {
		s := New()
		n := len(demands)
		if n > 12 {
			n = 12
		}
		for i := 0; i < n; i++ {
			th := 1
			if i < len(threads) {
				th = int(threads[i]%4) + 1
			}
			cl := Little
			if i < len(placements) && placements[i] {
				cl = Big
			}
			if err := s.Add(Task{PID: i + 1, DemandHz: float64(demands[i]) * 1e7, Threads: th, Cluster: cl}); err != nil {
				return false
			}
		}
		cp := [numClusters]Capacity{Little: {FreqHz: 1 * ghz, Cores: 4}, Big: {FreqHz: 2 * ghz, Cores: 4}}
		var res Assignment
		if err := s.AssignInto(cp[Little], cp[Big], &res); err != nil {
			return false
		}
		sum := map[ClusterID]float64{}
		for _, pid := range s.order {
			tk := s.tasks[pid]
			a := res.AchievedHzAt(s.Slot(pid))
			if a < 0 || a > tk.DemandHz+1e-6 {
				return false
			}
			sum[tk.Cluster] += a
		}
		for _, c := range Clusters() {
			if sum[c] > cp[c].TotalHz()+1e-3 {
				return false
			}
			if u := res.UtilCores(c); u < 0 || u > float64(cp[c].Cores)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSlotFollowsPIDOrder pins Slot to the ascending-PID layout that
// Assignment stores its grants in, across Adds, and the
// accessors' 0 for out-of-range slots.
func TestSlotFollowsPIDOrder(t *testing.T) {
	s := New()
	for _, pid := range []int{30, 10, 20} {
		_ = s.Add(Task{PID: pid, DemandHz: float64(pid) * 1e6, Threads: 1, Cluster: Big})
	}
	for pid, want := range map[int]int{10: 0, 20: 1, 30: 2, 99: -1} {
		if got := s.Slot(pid); got != want {
			t.Errorf("slot of PID %d = %d, want %d", pid, got, want)
		}
	}
	res := assign(t, s, 1*ghz, 2*ghz)
	for _, pid := range []int{10, 20, 30} {
		if got := res.achieved(pid); got != float64(pid)*1e6 {
			t.Errorf("PID %d achieved %v, want its demand", pid, got)
		}
	}
	for _, slot := range []int{-1, 3} {
		if res.a.AchievedHzAt(slot) != 0 || res.a.BusyShareAt(slot) != 0 {
			t.Errorf("slot %d reports a grant", slot)
		}
	}
	if res.util(ClusterID(-1)) != 0 || res.util(numClusters) != 0 {
		t.Error("an unknown cluster reports utilization")
	}
}

// TestAssignmentFollowsTaskSetAndScheduler reuses one Assignment while
// a task joins the scheduler, while a
// task migrates, and then for another scheduler: each step must equal
// a step into a fresh Assignment, with no grant left over from the
// previous step.
func TestAssignmentFollowsTaskSetAndScheduler(t *testing.T) {
	little, big := Capacity{FreqHz: 1 * ghz, Cores: 4}, Capacity{FreqHz: 2 * ghz, Cores: 4}
	check := func(s *Scheduler, reused *Assignment) {
		t.Helper()
		var fresh Assignment
		if err := s.AssignInto(little, big, reused); err != nil {
			t.Fatal(err)
		}
		if err := s.AssignInto(little, big, &fresh); err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot <= s.Len(); slot++ {
			if reused.AchievedHzAt(slot) != fresh.AchievedHzAt(slot) || reused.BusyShareAt(slot) != fresh.BusyShareAt(slot) {
				t.Errorf("slot %d: reused %v/%v, fresh %v/%v", slot,
					reused.AchievedHzAt(slot), reused.BusyShareAt(slot), fresh.AchievedHzAt(slot), fresh.BusyShareAt(slot))
			}
		}
		for _, c := range Clusters() {
			if reused.UtilCores(c) != fresh.UtilCores(c) {
				t.Errorf("%s util: reused %v, fresh %v", c, reused.UtilCores(c), fresh.UtilCores(c))
			}
		}
	}
	var a Assignment
	s := New()
	_ = s.Add(Task{PID: 2, DemandHz: 3 * ghz, Threads: 2, Cluster: Big})
	_ = s.Add(Task{PID: 5, DemandHz: 1 * ghz, Threads: 1, Cluster: Little})
	check(s, &a)
	_ = s.Add(Task{PID: 1, DemandHz: 6 * ghz, Threads: 4, Cluster: Big, RealTime: true})
	check(s, &a)
	_ = s.Add(Task{PID: 7, DemandHz: 0.2 * ghz, Threads: 1, Cluster: Big})
	check(s, &a)
	_ = s.Migrate(2, Little)
	check(s, &a)
	other := New()
	_ = other.Add(Task{PID: 9, DemandHz: 0.5 * ghz, Threads: 1, Cluster: Little})
	check(other, &a)
}

// TestStateRoundTrip saves a scheduler's demands, placements,
// real-time flags and migration count, loads them into a scheduler of
// the same task set, and requires the same state and grants. Loads
// into another task set, with an invalid cluster or cut short fail.
func TestStateRoundTrip(t *testing.T) {
	build := func() *Scheduler {
		s := New()
		for pid := 1; pid <= 3; pid++ {
			_ = s.Add(Task{PID: pid, DemandHz: ghz, Threads: 2, Cluster: Big})
		}
		return s
	}
	save := func(s *Scheduler) []byte {
		var w snapbin.Writer
		s.SaveState(&w)
		return bytes.Clone(w.Bytes())
	}
	src := build()
	src.tasks[2].DemandHz = 3 * ghz
	src.tasks[3].RealTime = true
	_ = src.Migrate(1, Little)
	saved := save(src)

	dst := build()
	if err := dst.LoadState(snapbin.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(dst), saved) {
		t.Error("loaded state re-encodes differently")
	}
	for _, pid := range src.order {
		if got, want := *dst.tasks[pid], *src.tasks[pid]; got != want {
			t.Errorf("PID %d: %+v, want %+v", pid, got, want)
		}
	}
	if dst.Migrations() != 1 {
		t.Errorf("migrations %d, want 1", dst.Migrations())
	}
	srcRes, dstRes := assign(t, src, 1*ghz, 2*ghz), assign(t, dst, 1*ghz, 2*ghz)
	for pid := 1; pid <= 3; pid++ {
		if srcRes.achieved(pid) != dstRes.achieved(pid) || srcRes.share(pid) != dstRes.share(pid) {
			t.Errorf("PID %d grants differ after the load", pid)
		}
	}

	bigger := build()
	_ = bigger.Add(Task{PID: 4, DemandHz: 1, Threads: 1, Cluster: Big})
	renumbered := New()
	for _, pid := range []int{1, 2, 7} {
		_ = renumbered.Add(Task{PID: pid, DemandHz: 1, Threads: 1, Cluster: Big})
	}
	var w snapbin.Writer
	w.PutInt(1)
	w.PutInt(1)
	w.PutF64(ghz)
	w.PutInt(int(numClusters))
	w.PutBool(false)
	w.PutInt(0)
	one := New()
	_ = one.Add(Task{PID: 1, DemandHz: 1, Threads: 1, Cluster: Big})
	for name, c := range map[string]struct {
		s    *Scheduler
		blob []byte
	}{
		"more tasks":      {bigger, saved},
		"other PIDs":      {renumbered, saved},
		"invalid cluster": {one, w.Bytes()},
	} {
		if err := c.s.LoadState(snapbin.NewReader(c.blob)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
	for cut := 0; cut < len(saved); cut++ {
		if err := build().LoadState(snapbin.NewReader(saved[:cut])); err == nil {
			t.Errorf("state cut at %d of %d bytes loaded", cut, len(saved))
		}
	}
}
