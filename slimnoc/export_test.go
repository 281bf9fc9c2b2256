package slimnoc

// IdleEngines reports how many episode engines sit on the estimator's free
// list, for the external tests that bound it by the caller count.
func (e *Estimator) IdleEngines() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.idle)
}

// withRunnerHook lets a test watch each campaign point's runner just before
// it runs: the network, route table and domain count it was handed.
func withRunnerHook(fn func(i int, r *runner)) CampaignOption {
	return func(c *Campaign) { c.hook = fn }
}

// withMemBudget caps one Run's estimated engine footprint at bytes, as a
// campaign's WithPointMemBudget does for each of its points.
func withMemBudget(bytes int64) Option {
	return func(r *runner) { r.memBudget = bytes }
}
