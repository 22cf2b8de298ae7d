package sim

// SteadySteps reports how many of e's steps replayed the step-input
// memo (stepPre's steady verdict).
func SteadySteps(e *Engine) uint64 { return e.fast.steadySteps }
