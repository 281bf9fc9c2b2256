package slimnoc

import (
	"context"
	"fmt"
	"math"
)

// SaturationSpec declares a saturation-load search: a binary search over the
// offered-load grid MinLoad + i*Step for the highest load the configuration
// sustains before its mean latency crosses a threshold (or the run itself
// reports saturation). Probes are ordinary campaign points — they flow
// through the campaign's sinks, network/route-table caches and, when a
// result store is attached (WithStore), its content-addressed cache, so a
// rerun of the same search simulates nothing and a brute-force grid sweep
// over the same loads shares the search's probe results point for point.
// Like RunSpec and SweepSpec it is JSON-round-trippable.
type SaturationSpec struct {
	// Name labels the search; probe names derive from it.
	Name string `json:"name,omitempty"`
	// Base is the configuration under test; its traffic.rate is replaced by
	// each probe's load and its seed is shared by every probe (so the load
	// axis is the only thing that varies). Closed-loop (reqreply) and trace
	// workloads have no offered-load knob and are rejected.
	Base RunSpec `json:"base"`
	// MinLoad and MaxLoad bracket the search in flits/node/cycle
	// (defaults 0.01 and 0.6).
	MinLoad float64 `json:"min_load,omitempty"`
	MaxLoad float64 `json:"max_load,omitempty"`
	// Step is the load-grid resolution: the found load is within one Step
	// of the true crossing (default 0.01).
	Step float64 `json:"step,omitempty"`
	// LatencyFactor declares saturation when a probe's mean latency exceeds
	// LatencyFactor times the MinLoad probe's mean latency (default 3).
	// Ignored when LatencyThreshold is set.
	LatencyFactor float64 `json:"latency_factor,omitempty"`
	// LatencyThreshold is an absolute mean-latency cutoff in cycles; when
	// positive it replaces the LatencyFactor-derived threshold. The MinLoad
	// probe still runs either way — it anchors the bracket (AtMin
	// detection) and reports BaseLatency.
	LatencyThreshold float64 `json:"latency_threshold,omitempty"`
}

// Normalized returns a copy with every defaultable field filled in and the
// base spec normalized.
func (s SaturationSpec) Normalized() SaturationSpec {
	s.Base = s.Base.Normalized()
	if s.MinLoad == 0 {
		s.MinLoad = 0.01
	}
	if s.MaxLoad == 0 {
		s.MaxLoad = 0.6
	}
	if s.Step == 0 {
		s.Step = 0.01
	}
	if s.LatencyFactor == 0 {
		s.LatencyFactor = 3
	}
	return s
}

// validate reports the first structural problem with the search spec.
func (s SaturationSpec) validate() error {
	s = s.Normalized()
	if s.MinLoad <= 0 || s.MaxLoad <= s.MinLoad {
		return fmt.Errorf("slimnoc: saturation search needs 0 < min_load < max_load (have %g, %g)",
			s.MinLoad, s.MaxLoad)
	}
	if s.Step <= 0 || s.Step > s.MaxLoad-s.MinLoad {
		return fmt.Errorf("slimnoc: saturation step %g out of (0, %g]", s.Step, s.MaxLoad-s.MinLoad)
	}
	if s.LatencyFactor <= 1 && s.LatencyThreshold <= 0 {
		return fmt.Errorf("slimnoc: saturation latency_factor %g must exceed 1 (or set latency_threshold)",
			s.LatencyFactor)
	}
	if s.Base.Traffic.Process == "reqreply" {
		return fmt.Errorf("slimnoc: saturation search needs an open-loop workload; process reqreply self-throttles and has no load knob")
	}
	if s.Base.Traffic.Pattern == "trace" {
		return fmt.Errorf("slimnoc: saturation search needs a rate-driven workload, not a trace")
	}
	probe := s.Base
	probe.Traffic.Rate = s.MinLoad
	return probe.Validate()
}

// grid returns the search's load grid, MinLoad + i*Step up to MaxLoad
// inclusive. Probes are drawn from exactly these float64 values (same
// arithmetic, same bits), so a SweepSpec with this slice as its Loads axis
// hits the same store keys as the search.
func (s SaturationSpec) grid() []float64 {
	s = s.Normalized()
	loads := make([]float64, s.gridSteps()+1)
	for i := range loads {
		loads[i] = s.load(i)
	}
	return loads
}

// gridSteps returns the index of the last grid point (>= 1 after Validate).
func (s SaturationSpec) gridSteps() int {
	return int(math.Floor((s.MaxLoad-s.MinLoad)/s.Step + 1e-9))
}

// load returns grid point i.
func (s SaturationSpec) load(i int) float64 {
	return s.MinLoad + float64(i)*s.Step
}

// saturates reports whether a probe's metrics cross the resolved threshold:
// the run reported saturation itself (undelivered tracked packets), or its
// mean latency exceeds threshold cycles.
func saturates(m Metrics, threshold float64) bool {
	return m.Saturated || m.AvgLatencyCycles > threshold
}

// SaturationResult is the outcome of one search.
type SaturationResult struct {
	// Spec is the normalized search that produced the result.
	Spec SaturationSpec `json:"spec"`
	// SaturationLoad is the highest probed load below the saturation
	// threshold — within one Step of the true crossing.
	SaturationLoad float64 `json:"saturation_load"`
	// Threshold is the resolved mean-latency cutoff in cycles (the explicit
	// LatencyThreshold, or LatencyFactor times the baseline latency).
	Threshold float64 `json:"threshold"`
	// BaseLatency is the MinLoad probe's mean latency in cycles.
	BaseLatency float64 `json:"base_latency"`
	// AtMin marks a configuration already saturated at MinLoad
	// (SaturationLoad is then an upper bound, not a crossing).
	AtMin bool `json:"at_min,omitempty"`
	// AtMax marks a configuration that never saturated up to MaxLoad
	// (SaturationLoad is then a lower bound).
	AtMax bool `json:"at_max,omitempty"`
	// Probes are the executed probe points in execution order; Index is the
	// probe sequence number. Shared store hits carry Cached like any other
	// campaign point.
	Probes []PointResult `json:"probes,omitempty"`
}

// SaturationSearch runs the binary search on this campaign: the MinLoad
// probe establishes the latency threshold (unless an absolute one is set),
// the MaxLoad probe checks the bracket, and bisection on the load grid then
// narrows the crossing to one Step. Every probe reuses the campaign's
// caches, sinks and attached result store exactly like Run's points, which
// makes searches resumable: rerunning an interrupted or completed search
// serves its probes from the store. The search sequence is deterministic
// (same spec => same probes in the same order), pinned by
// TestSaturationSearch. A probe failure or context cancellation aborts the
// search and returns the partial result alongside the error.
func (c *Campaign) SaturationSearch(ctx context.Context, spec SaturationSpec) (SaturationResult, error) {
	spec = spec.Normalized()
	res := SaturationResult{Spec: spec}
	if err := spec.validate(); err != nil {
		return res, err
	}
	c.ensureCache()

	probe := func(i int) (Metrics, error) {
		load := spec.load(i)
		p := spec.Base
		p.Traffic.Rate = load
		prefix := spec.Name
		if prefix == "" {
			prefix = spec.Base.Name
		}
		if prefix == "" {
			prefix = "sat"
		}
		p.Name = fmt.Sprintf("%s/load%.3f", prefix, load)
		p = p.Normalized()
		pr := PointResult{Index: len(res.Probes), Spec: p}
		if err := ctx.Err(); err != nil {
			return Metrics{}, err
		}
		// Probes run one at a time, so the engine picks its domain count.
		pr.Result, pr.Cached, pr.Err = c.execPoint(ctx, pr.Index, p, c.cache, 0)
		if pr.Err != nil {
			pr.Error = pr.Err.Error()
		}
		c.emitPoint(&pr)
		res.Probes = append(res.Probes, pr)
		if pr.Err != nil {
			return Metrics{}, fmt.Errorf("slimnoc: saturation probe at load %g: %w", load, pr.Err)
		}
		return pr.Result.Metrics, nil
	}

	steps := spec.gridSteps()
	base, err := probe(0)
	if err != nil {
		return res, err
	}
	res.BaseLatency = base.AvgLatencyCycles
	res.Threshold = spec.LatencyThreshold
	if res.Threshold <= 0 {
		res.Threshold = spec.LatencyFactor * math.Max(base.AvgLatencyCycles, 1)
	}
	if saturates(base, res.Threshold) {
		res.AtMin = true
		res.SaturationLoad = spec.load(0)
		return res, nil
	}
	top, err := probe(steps)
	if err != nil {
		return res, err
	}
	if !saturates(top, res.Threshold) {
		res.AtMax = true
		res.SaturationLoad = spec.load(steps)
		return res, nil
	}
	lo, hi := 0, steps // invariant: lo unsaturated, hi saturated
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		m, err := probe(mid)
		if err != nil {
			return res, err
		}
		if saturates(m, res.Threshold) {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.SaturationLoad = spec.load(lo)
	return res, nil
}
