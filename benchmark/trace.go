package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; they are written out
// once, at exit (flush). Every span also feeds a per-name sample list, from
// which the per-layer metrics take their medians and percentiles. A nil
// *tracer records nothing, so one function body serves both the untraced op
// and its traced twin.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64 // ns per call, keyed by span name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes a span and records its duration as one sample of its name.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	t.samples[s.Name] = append(t.samples[s.Name], float64(s.End-s.Start))
}

// time runs f inside a span.
func (t *tracer) time(name string, op, parent int, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// record stores a span the caller timed itself (start and end are offsets
// from t.t0), for spans whose name is only known once they end.
func (t *tracer) record(name string, op int, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans), Parent: -1, Start: start, End: end})
	t.samples[name] = append(t.samples[name], float64(end-start))
}

// timeN runs f n times inside one span and records the mean per call: for
// calls too short to time one by one.
func (t *tracer) timeN(name string, op, n int, f func(i int)) {
	now := time.Since(t.t0)
	for i := 0; i < n; i++ {
		f(i)
	}
	end := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans), Parent: -1, Start: now, End: end})
	t.samples[name] = append(t.samples[name], float64(end-now)/float64(n))
}

// add records a sample that no single span measured (a gap between events).
func (t *tracer) add(name string, ns float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], ns)
}

// dropSamples forgets every sample taken so far; the spans stay.
func (t *tracer) dropSamples() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples = make(map[string][]float64)
}

// med is the median sample of a name, in ns.
func (t *tracer) med(name string) float64 { return median(t.samples[name]) }

// pct is the q-quantile sample of a name, in ns.
func (t *tracer) pct(name string, q float64) float64 { return percentile(sorted(t.samples[name]), q) }

// flush writes every span as one JSON document.
func (t *tracer) flush(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
