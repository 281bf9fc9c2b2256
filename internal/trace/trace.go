// Package trace is the reproduction's substitute for the paper's
// PARSEC/SPLASH traces (§5.1). The paper collects message traces at the L1
// back side with Manifold + DRAMSim2; we cannot rerun those binaries, so
// this package generates seeded synthetic traces with the same message
// model: read requests and coherence messages of 2 flits, write messages of
// 6 flits, and a 6-flit reply for every read (§5.1 "Real Traffic"). Each of
// the 14 benchmarks has its own injection intensity, read/write/coherence
// mix, and spatial locality, chosen to span the behaviours the suite is
// known for (memory-intensive vs compute-bound, local vs global sharing).
// Three 64-thread copies run side by side on 192 cores to model the paper's
// multiprogrammed scenario.
package trace

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// Message classes carried through the simulator.
const (
	classRead  = 1 // 2 flits, triggers a 6-flit reply
	classWrite = 2 // 6 flits
	classCoh   = 3 // 2 flits
	classReply = 4 // 6 flits, generated at the read destination
)

// Flit sizes per class (§5.1).
const (
	flitsRead  = 2
	flitsWrite = 6
	flitsCoh   = 2
	flitsReply = 6
)

// Benchmark describes one synthetic workload.
type Benchmark struct {
	Name string
	// Rate is the request injection probability per node per cycle.
	Rate float64
	// ReadFrac/WriteFrac of requests; the rest are coherence messages.
	ReadFrac, WriteFrac float64
	// Locality is the probability a destination falls in the source's
	// quarter of its application copy (directory/bank locality).
	Locality float64
	// Hotspot is the probability a destination is one of the copy's few
	// "home" nodes (e.g. a lock or a reduction root).
	Hotspot float64
}

// Benchmarks returns the 14 PARSEC/SPLASH workloads in the paper's Fig. 10b
// order with per-benchmark parameters. Rates span light (barnes, water) to
// heavy (fft, radix) network use; sharing structure varies from
// nearest-neighbour (ocean) to all-to-all (radix) to hotspot-heavy
// (radiosity, volrend).
func Benchmarks() []Benchmark {
	// Rates are requests/node/cycle at the L1 back side; with replies the
	// resulting flit loads span ~0.02-0.12 flits/node/cycle — the regime
	// real PARSEC traces exercise (all topologies below saturation except
	// the mesh on the heaviest workloads, as in the paper's Fig. 10b).
	return []Benchmark{
		{Name: "barnes", Rate: 0.004, ReadFrac: 0.62, WriteFrac: 0.18, Locality: 0.55, Hotspot: 0.05},
		{Name: "canneal", Rate: 0.012, ReadFrac: 0.68, WriteFrac: 0.22, Locality: 0.15, Hotspot: 0.02},
		{Name: "cholesky", Rate: 0.007, ReadFrac: 0.60, WriteFrac: 0.25, Locality: 0.45, Hotspot: 0.06},
		{Name: "dedup", Rate: 0.008, ReadFrac: 0.55, WriteFrac: 0.30, Locality: 0.35, Hotspot: 0.08},
		{Name: "ferret", Rate: 0.008, ReadFrac: 0.58, WriteFrac: 0.27, Locality: 0.30, Hotspot: 0.07},
		{Name: "fft", Rate: 0.016, ReadFrac: 0.65, WriteFrac: 0.25, Locality: 0.10, Hotspot: 0.02},
		{Name: "fluidan.", Rate: 0.006, ReadFrac: 0.60, WriteFrac: 0.25, Locality: 0.60, Hotspot: 0.03},
		{Name: "ocean-c", Rate: 0.010, ReadFrac: 0.63, WriteFrac: 0.24, Locality: 0.70, Hotspot: 0.02},
		{Name: "radios.", Rate: 0.007, ReadFrac: 0.58, WriteFrac: 0.22, Locality: 0.25, Hotspot: 0.15},
		{Name: "radix", Rate: 0.018, ReadFrac: 0.55, WriteFrac: 0.35, Locality: 0.08, Hotspot: 0.02},
		{Name: "streamcl.", Rate: 0.012, ReadFrac: 0.66, WriteFrac: 0.22, Locality: 0.20, Hotspot: 0.04},
		{Name: "vips", Rate: 0.007, ReadFrac: 0.57, WriteFrac: 0.28, Locality: 0.40, Hotspot: 0.05},
		{Name: "volrend", Rate: 0.005, ReadFrac: 0.64, WriteFrac: 0.18, Locality: 0.30, Hotspot: 0.12},
		{Name: "water-s", Rate: 0.004, ReadFrac: 0.60, WriteFrac: 0.22, Locality: 0.55, Hotspot: 0.04},
	}
}

// BenchmarkByName looks a benchmark up (nil if unknown).
func BenchmarkByName(name string) *Benchmark {
	for _, b := range Benchmarks() {
		if b.Name == name {
			b := b
			return &b
		}
	}
	return nil
}

// Source drives the simulator with one benchmark's synthetic trace, running
// `Copies` application copies of `ThreadsPerCopy` threads each on the first
// Copies*ThreadsPerCopy nodes (paper: 3 x 64 threads on 192 cores).
type Source struct {
	B              Benchmark
	N              int // total nodes in the network
	Copies         int
	ThreadsPerCopy int

	// Stats.
	Requests int64
	Replies  int64
}

var _ sim.Source = (*Source)(nil)

// NewSource builds the paper's multiprogrammed configuration for a network
// of n nodes: three 64-thread copies when they fit, otherwise one copy
// spanning all nodes.
func NewSource(b Benchmark, n int) *Source {
	copies, threads := 3, 64
	if copies*threads > n {
		copies, threads = 1, n
	}
	return &Source{B: b, N: n, Copies: copies, ThreadsPerCopy: threads}
}

// Generate implements sim.Source: one Float64() < Rate decision per active
// node, ascending, each issuing node's destination and class draws following
// its own decision.
func (s *Source) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	rate, active := s.B.Rate, s.Copies*s.ThreadsPerCopy
	for node := rng.FirstBelow(rate, active); node < active; node += 1 + rng.FirstBelow(rate, active-node-1) {
		dst := s.dest(rng, node)
		r := rng.Float64()
		switch {
		case r < s.B.ReadFrac:
			emit(node, dst, flitsRead, classRead)
		case r < s.B.ReadFrac+s.B.WriteFrac:
			emit(node, dst, flitsWrite, classWrite)
		default:
			emit(node, dst, flitsCoh, classCoh)
		}
		s.Requests++
	}
}

// dest picks a destination within the source's application copy using the
// benchmark's locality/hotspot structure.
func (s *Source) dest(rng *rng.Stream, src int) int {
	copyID := src / s.ThreadsPerCopy
	base := copyID * s.ThreadsPerCopy
	local := src - base
	var d int
	switch r := rng.Float64(); {
	case r < s.B.Hotspot:
		// Home nodes: the first four threads of the copy.
		d = rng.Intn(4)
	case r < s.B.Hotspot+s.B.Locality:
		// Same quarter of the copy.
		quarter := s.ThreadsPerCopy / 4
		if quarter == 0 {
			quarter = 1
		}
		d = (local/quarter)*quarter + rng.Intn(quarter)
	default:
		d = rng.Intn(s.ThreadsPerCopy)
	}
	d += base
	if d == src {
		d = base + (local+1)%s.ThreadsPerCopy
	}
	return d
}

// OnDelivered implements sim.Source: reads trigger 6-flit replies (§5.1).
func (s *Source) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	if class == classRead {
		emit(dst, src, flitsReply, classReply)
		s.Replies++
	}
}
