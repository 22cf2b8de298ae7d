package sim

// SteadySteps reports how many of e's steps replayed the step-input
// memo (stepPre's steady verdict).
func SteadySteps(e *Engine) uint64 { return e.fast.steadySteps }

// TaskAvgPowers returns window-averaged power for every task.
func (e *Engine) TaskAvgPowers() map[int]float64 {
	out := make(map[int]float64, len(e.taskPower))
	for pid := range e.taskPower {
		out[pid] = e.TaskAvgPowerW(pid)
	}
	return out
}
