package slimnoc

// IdleEngines reports how many episode engines sit on the estimator's free
// list, for the external tests that bound it by the caller count.
func (e *Estimator) IdleEngines() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.idle)
}
