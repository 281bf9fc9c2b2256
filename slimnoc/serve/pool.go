package serve

import (
	"context"
	"runtime"
	"sync"

	"repro/slimnoc"
	"repro/slimnoc/store"
)

// Pool multiplexes sessions over a small set of warm engines. It has two
// jobs:
//
//   - Warm-engine sharing: estimators are keyed by their canonical spec
//     (slimnoc.EstimatorSpec — expanded network, static routing, VCs,
//     buffering, hop factor), built at most once, and shared by every
//     session that negotiates the same engine. The network and route table
//     inside are read-only — the same contract the Campaign netCache uses —
//     and the estimator recycles the simulators its episodes run on (see
//     slimnoc.Estimator).
//   - Activation bounding: each engine episode (an actual simulation)
//     holds one of Size activation slots while it runs. More concurrent
//     sessions than slots simply queue, which is how server-side
//     backpressure reaches clients without dropping requests. Because an
//     estimator keeps one simulator per concurrently running episode, Size
//     is also the most simulators any one engine ever holds. Episodes
//     step one domain each, so the slots are the server's parallelism.
//
// A Pool is safe for concurrent use by any number of sessions.
type Pool struct {
	slots chan struct{}

	mu      sync.Mutex
	engines map[string]*poolEntry
}

// poolEntry memoizes one warm-engine build, errors included.
type poolEntry struct {
	once sync.Once
	est  *slimnoc.Estimator
	err  error
}

// NewPool builds a pool with the given number of activation slots
// (<= 0 selects runtime.GOMAXPROCS(0)).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		slots:   make(chan struct{}, size),
		engines: make(map[string]*poolEntry),
	}
}

// Size returns the activation-slot count.
func (p *Pool) Size() int { return cap(p.slots) }

// Engine returns the warm estimator for the spec, building it on first
// use. Two specs that canonicalize identically (preset vs explicit
// parameters, defaulted fields, irrelevant traffic/sim sections) share one
// engine.
func (p *Pool) Engine(spec slimnoc.RunSpec) (*slimnoc.Estimator, error) {
	canon, err := slimnoc.EstimatorSpec(spec)
	if err != nil {
		return nil, err
	}
	keyBytes, err := store.Canonical(canon)
	if err != nil {
		return nil, err
	}
	key := string(keyBytes)
	p.mu.Lock()
	e, ok := p.engines[key]
	if !ok {
		e = &poolEntry{}
		p.engines[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		e.est, e.err = slimnoc.NewEstimator(canon)
	})
	return e.est, e.err
}

// Engines returns the number of warm engines resident (failed builds
// included until evicted by a successful rebuild of the same key — they
// are cheap placeholders).
func (p *Pool) Engines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.engines)
}

// Acquire takes one activation slot, blocking while all are in use; it
// returns ctx's error if the context ends first. Every Acquire must be
// paired with Release.
func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns an activation slot taken by Acquire.
func (p *Pool) Release() { <-p.slots }
