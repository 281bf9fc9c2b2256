package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics, measured with tracing off: host
// time, memory, and allocation volume — the one that repeats to a fraction of
// a percent on a machine whose speed does not. failed_frac is not among them: a metric may never read 0, so
// failures travel as the result line's attempted/failed counts instead.
var e2eMetrics = []metricDef{
	{"ops_per_s", "op/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"alloc_kb_per_op", "KiB"},
	{"setup_s", "s"},
}

const (
	// Set-up is repeated and its median reported: at least minSetups times,
	// and on up to maxSetups while the repeats fit in setupBudget.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
	// segments is how many pieces the timed section is cut into; rates are
	// the median over the pieces, so a disturbed second does not move them.
	segments = 15
)

// runOut is the outcome of one workload run, traced or not.
type runOut struct {
	attempted, failed int
	pinned            bool
	metrics           map[string]float64
	// latencyMs holds every timed op's latency (untraced runs).
	latencyMs []float64
	notes     []string
}

type opSample struct {
	end, lat time.Duration
	kind     reqKind
	bad      bool
}

// boundary is a cut of the timed section, taken by session 0 at the end of
// one of its ops, with the process CPU time used so far.
type boundary struct{ at, cpu time.Duration }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setUp builds the workload the repeated way and returns the last instance,
// warmed up, with the duration of every repeat in seconds.
func setUp(w *workload, e *env, chk *checker) (instance, []float64, error) {
	var durations []float64
	var total time.Duration
	for {
		start := time.Now()
		inst, err := w.setup(e, w)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for s := 0; s < inst.sessions(); s++ {
			for i := 0; i < w.warm; i++ {
				if err := chk.verify(inst.op(s, i)); err != nil {
					inst.close()
					return nil, nil, fmt.Errorf("warm-up op %d of session %d: %w", i, s, err)
				}
			}
		}
		d := time.Since(start)
		durations = append(durations, d.Seconds())
		total += d
		if n := len(durations); n >= e.atLeast(maxSetups) || (n >= e.atLeast(minSetups) && total >= setupBudget) {
			return inst, durations, nil
		}
		if err := inst.close(); err != nil {
			return nil, nil, fmt.Errorf("set-up teardown: %w", err)
		}
	}
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w *workload, e *env, seconds float64, p pins, log io.Writer) (runOut, error) {
	chk := newChecker(p, w.name, e.seed)
	inst, setups, err := setUp(w, e, chk)
	if err != nil {
		return runOut{}, err
	}
	ts := timedSection(inst, w.warm, time.Duration(seconds*float64(time.Second)), w.rssAt, chk, log, nil)
	samples, cuts := ts.samples, ts.cuts
	if err := inst.close(); err != nil {
		return runOut{}, fmt.Errorf("teardown: %w", err)
	}

	out := runOut{pinned: chk.pinned, metrics: make(map[string]float64)}
	for _, sess := range samples {
		for _, s := range sess {
			out.attempted++
			if s.bad {
				out.failed++
			}
			out.latencyMs = append(out.latencyMs, float64(s.lat)/1e6)
		}
	}
	rates, cpus := segmentRates(samples, cuts)
	lat := sorted(out.latencyMs)
	out.metrics["ops_per_s"] = median(rates)
	out.metrics["op_ms_p50"] = percentile(lat, 0.50)
	out.metrics["op_ms_p90"] = percentile(lat, 0.90)
	out.metrics["cpu_ms_per_op"] = median(cpus)
	out.metrics["peak_rss_mb"] = ts.rssMiB
	out.metrics["alloc_kb_per_op"] = ts.allocKB / float64(out.attempted)
	out.metrics["setup_s"] = median(setups)
	out.notes = append(out.notes,
		fmt.Sprintf("timed ops %d in %d segments (rates: median of segments; percentiles: all ops; p90 has %d ops beyond it)",
			len(lat), len(rates), len(lat)-int(0.9*float64(len(lat)))),
		fmt.Sprintf("set-up repeated %d times (median reported)", len(setups)))
	if w.rssAt > 0 {
		out.notes = append(out.notes, fmt.Sprintf("peak_rss_mb read after timed op %d (or at the end of a run that stops short of it)", w.rssAt))
	}
	return out, nil
}

// timed is what one timed section leaves behind.
type timed struct {
	samples [][]opSample // per session, in order
	cuts    []boundary
	rssMiB  float64
	allocKB float64 // heap KiB allocated during the section, all goroutines
}

// timedSection drives every session for d: each session issues its next op
// as soon as the previous one returns (a closed loop). Peak RSS is read when
// the sessions have together completed rssAt ops, or at the end if rssAt is
// 0 or never reached. With a tracer, every op is also recorded as a span
// named after its request kind.
func timedSection(inst instance, first int, d time.Duration, rssAt int64, chk *checker, log io.Writer, tr *tracer) timed {
	n := inst.sessions()
	out := timed{samples: make([][]opSample, n), cuts: []boundary{{0, cpuTime()}}}
	segLen := d / segments
	var logMu sync.Mutex
	logged := 0
	var done atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			nextCut := segLen
			for i := first; ; i++ {
				start := time.Since(t0)
				op := inst.op(s, i)
				end := time.Since(t0)
				if done.Add(1) == rssAt {
					out.rssMiB = peakRSSMiB() // only one op ever gets here
				}
				err := chk.verify(op)
				if err != nil {
					logMu.Lock()
					if logged++; logged <= 5 {
						fmt.Fprintf(log, "benchmark: op %d of session %d failed: %v\n", i, s, err)
					}
					logMu.Unlock()
				}
				out.samples[s] = append(out.samples[s], opSample{end: end, lat: end - start, kind: op.kind, bad: err != nil})
				if tr != nil {
					base := t0.Sub(tr.t0)
					tr.record(kindSpans[op.kind], i, base+start, base+end)
				}
				if s == 0 && (end >= nextCut || end >= d) {
					out.cuts = append(out.cuts, boundary{end, cpuTime()})
					nextCut = end + segLen
				}
				if end >= d {
					return
				}
			}
		}(s)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	out.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	if out.rssMiB == 0 {
		out.rssMiB = peakRSSMiB()
	}
	return out
}

// segmentRates returns, per segment between consecutive cuts, the ops
// completed per second and the CPU milliseconds used per op.
func segmentRates(samples [][]opSample, cuts []boundary) (rates, cpuMs []float64) {
	counts := make([]int, len(cuts)-1)
	for _, sess := range samples {
		seg := 0
		for _, s := range sess { // ends ascend within a session
			for seg < len(counts) && s.end > cuts[seg+1].at {
				seg++
			}
			if seg == len(counts) {
				break
			}
			counts[seg]++
		}
	}
	for j, c := range counts {
		wall := cuts[j+1].at - cuts[j].at
		if c == 0 || wall <= 0 {
			continue
		}
		rates = append(rates, float64(c)/wall.Seconds())
		cpuMs = append(cpuMs, float64(cuts[j+1].cpu-cuts[j].cpu)/1e6/float64(c))
	}
	return rates, cpuMs
}
