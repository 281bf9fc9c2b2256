// Package exp reproduces the paper's evaluation (§2.1, §2.2, §3, §5, §6).
// Every table and figure is one manifest entry (Figure): the declarative
// simulation grids that generate its points, plus an optional Derive that
// renders the paper's exact tables from those points and the analytical
// area/power/layout models, and the paper's claims about those tables as
// code (Claims). One driver (RunFigure) executes the grids; cmd/snrepro
// renders every figure's per-point reports, derived tables and claim
// verdicts against a result store.
package exp

import (
	"fmt"

	"repro/internal/topo"
	"repro/slimnoc"
)

// Options tunes experiment scale. Quick mode shrinks cycle counts and sweep
// density so the full suite runs in benchmark time; Full matches the paper's
// methodology more closely. Explicit cycle counts, when positive, override
// the mode's defaults.
type Options struct {
	Quick bool
	Seed  int64

	// Jobs is the simulation worker count for a figure's points: 1 forces
	// serial execution, 0 (the default) uses GOMAXPROCS. Results are
	// identical at any job count — each point's seed is fixed up front — so
	// Jobs trades wall-clock only.
	Jobs int

	// MemBudget caps each point's estimated engine footprint in bytes
	// (slimnoc.WithPointMemBudget). 0 defers to the figure's declared
	// budget (Figure.MemBudget); a negative value disables any cap.
	// Oversized points fail fast with a sizing error instead of
	// allocating; runs that fit are unaffected.
	MemBudget int64

	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64
}

// cycles returns (warmup, measure, drain) for the current mode.
func (o Options) cycles() (int64, int64, int64) {
	mode := slimnoc.FullSim()
	if o.Quick {
		mode = slimnoc.QuickSim()
	}
	if o.WarmupCycles > 0 {
		mode.WarmupCycles = o.WarmupCycles
	}
	if o.MeasureCycles > 0 {
		mode.MeasureCycles = o.MeasureCycles
	}
	if o.DrainCycles > 0 {
		mode.DrainCycles = o.DrainCycles
	}
	return mode.WarmupCycles, mode.MeasureCycles, mode.DrainCycles
}

// simSpec returns the facade simulation parameters for the mode.
func (o Options) simSpec() slimnoc.SimSpec {
	warm, meas, drain := o.cycles()
	return slimnoc.SimSpec{
		WarmupCycles:  warm,
		MeasureCycles: meas,
		DrainCycles:   drain,
		Seed:          o.Seed + 1,
	}
}

// loads returns the offered-load sweep in flits/node/cycle.
func (o Options) loads() []float64 {
	if o.Quick {
		return []float64{0.008, 0.06, 0.24}
	}
	return []float64{0.008, 0.02, 0.06, 0.12, 0.24, 0.40}
}

// preset builds a named network through the slimnoc preset registry: the
// Table 4 names (cm3, t2d9, fbf8, pfbf4, ...), sn_<layout>_<N> for Slim
// NoCs, and the N=54 small-scale set of §5.6.
func preset(name string) (*topo.Network, error) {
	net, _, err := slimnoc.BuildNetwork(slimnoc.NetworkSpec{Preset: name})
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return net, nil
}
