package slimnoc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// SweepSpec declares a campaign: a base RunSpec plus axes whose values are
// combined into a deterministic cartesian product of run points. Like
// RunSpec it is JSON-round-trippable, so a whole evaluation grid (one paper
// figure) lives in one file.
type SweepSpec struct {
	// Name labels the sweep; point names are derived from it.
	Name string `json:"name,omitempty"`
	// Base is the run every point starts from; axis values override its
	// corresponding fields.
	Base RunSpec   `json:"base"`
	Axes SweepAxes `json:"axes"`
}

// SweepAxes are the swept dimensions. An empty axis contributes a single
// "inherit from base" value. Expansion order is fixed and documented on
// Points: networks vary slowest (so consecutive points share a cached
// network) and seeds fastest.
type SweepAxes struct {
	// Presets name ready-made networks (Table 4 shorthand); Networks carry
	// explicit specs. Both feed one network axis, presets first.
	Presets  []string      `json:"presets,omitempty"`
	Networks []NetworkSpec `json:"networks,omitempty"`
	// Patterns are traffic pattern names (rnd, shf, adv1, ...).
	Patterns []string `json:"patterns,omitempty"`
	// Processes are temporal-process names (bernoulli, burst, mmpp,
	// reqreply), overriding the base spec's traffic.process per point.
	Processes []string `json:"processes,omitempty"`
	// Schemes are buffer-scheme names (eb, eb-large, el, cbr, ...).
	Schemes []string `json:"schemes,omitempty"`
	// VCs are virtual-channel counts.
	VCs []int `json:"vcs,omitempty"`
	// Loads are offered loads in flits/node/cycle.
	Loads []float64 `json:"loads,omitempty"`
	// Seeds are explicit simulation seeds. When empty, every point gets a
	// seed derived deterministically from the base seed and the point index
	// (see DeriveSeed), so repeated points of one sweep stay statistically
	// independent yet each point remains individually reproducible.
	Seeds []int64 `json:"seeds,omitempty"`
}

// DeriveSeed returns the simulation seed for point index i of a sweep whose
// base seed is base. The derivation is a splitmix64 finalizer over
// (base, i): deterministic, order-independent, and collision-free for all
// practical sweep sizes, so the parallel and serial execution of one sweep
// use identical per-point seeds. The result is never 0 (0 means "unset"
// throughout the spec layer).
//
// keep: the documented seed rule of every sweep point (docs/DETERMINISM.md),
// for rebuilding one point of a sweep outside it.
func DeriveSeed(base int64, i int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Keep seeds positive and non-zero so they survive omitempty JSON
	// round trips and "0 = default" checks.
	s := int64(z &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// networkAxis merges the preset and explicit network axes.
func (a SweepAxes) networkAxis() []NetworkSpec {
	out := make([]NetworkSpec, 0, len(a.Presets)+len(a.Networks))
	for _, p := range a.Presets {
		out = append(out, NetworkSpec{Preset: p})
	}
	out = append(out, a.Networks...)
	return out
}

// axisLen treats an empty axis as one inherited value.
func axisLen(l int) int {
	if l == 0 {
		return 1
	}
	return l
}

// NumPoints returns the size of the cartesian product.
func (s SweepSpec) NumPoints() int {
	n := 1
	for _, l := range []int{
		len(s.Axes.networkAxis()), len(s.Axes.Patterns), len(s.Axes.Processes),
		len(s.Axes.Schemes), len(s.Axes.VCs), len(s.Axes.Loads), len(s.Axes.Seeds),
	} {
		n *= axisLen(l)
	}
	return n
}

// Points expands the sweep into its cartesian product of normalized
// RunSpecs. The expansion is deterministic: axes nest in the fixed order
// networks (slowest) > patterns > processes > schemes > vcs > loads > seeds
// (fastest), each axis in declaration order. Every point carries a concrete
// seed — from the seed axis when declared, otherwise derived via DeriveSeed
// from the base seed and the point index — so any single point re-run on
// its own reproduces the in-sweep metrics exactly. Point names carry one
// token per swept axis plus the workload tokens of the resolved traffic
// spec (process, burst shape, hotspot, size mix, window; see TrafficLabel),
// so mixed-process sweeps stay distinguishable in sinks and reports.
func (s SweepSpec) Points() ([]RunSpec, error) {
	nets := s.Axes.networkAxis()
	nNet, nPat := axisLen(len(nets)), axisLen(len(s.Axes.Patterns))
	nProc := axisLen(len(s.Axes.Processes))
	nSch, nVC := axisLen(len(s.Axes.Schemes)), axisLen(len(s.Axes.VCs))
	nLoad, nSeed := axisLen(len(s.Axes.Loads)), axisLen(len(s.Axes.Seeds))

	total := nNet * nPat * nProc * nSch * nVC * nLoad * nSeed
	points := make([]RunSpec, 0, total)
	idx := 0
	for in := 0; in < nNet; in++ {
		for ip := 0; ip < nPat; ip++ {
			for ix := 0; ix < nProc; ix++ {
				for is := 0; is < nSch; is++ {
					for iv := 0; iv < nVC; iv++ {
						for il := 0; il < nLoad; il++ {
							for ic := 0; ic < nSeed; ic++ {
								p := s.Base
								var label []string
								if len(nets) > 0 {
									p.Network = nets[in]
									label = append(label, netLabel(nets[in]))
								}
								if len(s.Axes.Patterns) > 0 {
									p.Traffic.Pattern = s.Axes.Patterns[ip]
									label = append(label, strings.ToLower(s.Axes.Patterns[ip]))
								}
								if len(s.Axes.Processes) > 0 {
									p.Traffic.Process = s.Axes.Processes[ix]
								}
								if len(s.Axes.Schemes) > 0 {
									p.Buffering.Scheme = s.Axes.Schemes[is]
									label = append(label, strings.ToLower(s.Axes.Schemes[is]))
								}
								if len(s.Axes.VCs) > 0 {
									p.Routing.VCs = s.Axes.VCs[iv]
									label = append(label, fmt.Sprintf("vc%d", s.Axes.VCs[iv]))
								}
								if len(s.Axes.Loads) > 0 {
									p.Traffic.Rate = s.Axes.Loads[il]
									label = append(label, fmt.Sprintf("load%.3f", s.Axes.Loads[il]))
								}
								if len(s.Axes.Seeds) > 0 {
									p.Sim.Seed = s.Axes.Seeds[ic]
									label = append(label, fmt.Sprintf("seed%d", s.Axes.Seeds[ic]))
								} else {
									p.Sim.Seed = DeriveSeed(s.Base.Sim.Seed, idx)
								}
								p = p.Normalized()
								label = append(label, TrafficLabel(p.Traffic)...)
								p.Name = pointName(s.Name, s.Base.Name, label, idx)
								points = append(points, p)
								idx++
							}
						}
					}
				}
			}
		}
	}
	for i, p := range points {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("slimnoc: sweep point %d (%s): %w", i, p.Name, err)
		}
	}
	return points, nil
}

// DisplayProcess spells out a normalized TrafficSpec's temporal process for
// human-facing output: the canonicalized-empty default reads "bernoulli",
// except for trace workloads, which have no injection process at all. Sinks
// and reports share this one derivation.
func DisplayProcess(ts TrafficSpec) string {
	if ts.Process == "" && ts.Trace == "" {
		return "bernoulli"
	}
	return ts.Process
}

// TrafficLabel renders the workload-axis tokens of a normalized TrafficSpec:
// the temporal process (when not the Bernoulli default), its shape
// parameters when explicitly set, the hotspot overlay, the size mix, and
// the request-reply window. Specs written before the workload decomposition
// produce no tokens, so existing point names are unchanged.
func TrafficLabel(ts TrafficSpec) []string {
	var out []string
	if ts.Process != "" {
		out = append(out, ts.Process)
	}
	if ts.BurstLen != 0 {
		out = append(out, fmt.Sprintf("bl%g", ts.BurstLen))
	}
	if ts.Duty != 0 {
		out = append(out, fmt.Sprintf("duty%g", ts.Duty))
	}
	if ts.ModFactor != 0 {
		out = append(out, fmt.Sprintf("mf%g", ts.ModFactor))
	}
	if ts.ModPeriod != 0 {
		out = append(out, fmt.Sprintf("mp%g", ts.ModPeriod))
	}
	if ts.HotspotFraction != 0 {
		k := ts.HotspotCount
		if k == 0 {
			k = defaultHotCount
		}
		out = append(out, fmt.Sprintf("hot%gx%d", ts.HotspotFraction, k))
	}
	if ts.SizeMix != "" {
		out = append(out, ts.SizeMix)
	}
	if ts.Window != 0 {
		out = append(out, fmt.Sprintf("w%d", ts.Window))
	}
	return out
}

// netLabel compacts a network axis value for point names.
func netLabel(ns NetworkSpec) string {
	if ns.Preset != "" {
		return strings.ToLower(ns.Preset)
	}
	if ns.Topology != "" {
		return strings.ToLower(ns.Topology)
	}
	return "net"
}

// pointName composes a stable, human-readable point name.
func pointName(sweep, base string, label []string, idx int) string {
	prefix := sweep
	if prefix == "" {
		prefix = base
	}
	if prefix == "" {
		prefix = "sweep"
	}
	if len(label) == 0 {
		return fmt.Sprintf("%s/%d", prefix, idx)
	}
	return prefix + "/" + strings.Join(label, "/")
}

// parseSweep decodes a SweepSpec from JSON, rejecting unknown fields so
// typos in hand-written sweep files fail loudly.
func parseSweep(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("slimnoc: parsing sweep: %w", err)
	}
	s.Base = s.Base.Normalized()
	return s, nil
}

// LoadSweep reads and parses a sweep file.
func LoadSweep(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("slimnoc: loading sweep: %w", err)
	}
	return parseSweep(data)
}
