// Package power is the reproduction's stand-in for the DSENT area/power
// tool the paper uses (§5.1). It provides analytical area, static-power and
// dynamic-power models for placed networks at 45 nm / 1.0 V and
// 22 nm / 0.8 V, with the same functional forms DSENT applies: buffer cost
// proportional to storage bits, crossbar cost proportional to
// (radix × width)^2, and wire cost proportional to length × width. Absolute
// numbers are calibrated to published magnitudes; relative comparisons
// (which drive every paper conclusion) follow from network structure.
package power

import (
	"math"

	"repro/internal/core"
	"repro/internal/topo"
)

// Tech bundles one technology point.
type Tech struct {
	Name string
	VDD  float64

	// Area constants.
	BufBitAreaMM2  float64 // buffer storage, mm^2 per bit
	XbarCellMM2    float64 // crossbar, mm^2 per (port^2 * bit)
	AllocCellMM2   float64 // allocator/arbiter, mm^2 per (port^2 * VC)
	WirePitchMM    float64 // wire pitch, mm per track (global layer)
	WirePitchIntMM float64 // intermediate layer pitch

	// Static (leakage) power constants.
	BufLeakWPerBit float64
	XbarLeakWPerPB float64 // per (port^2 * bit)
	WireLeakWPerMM float64 // repeated wire, per signal mm

	// Dynamic energy constants.
	EBufRWJPerBit  float64 // buffer write+read, J per bit
	EXbarJPerBit   float64 // crossbar traversal, J per bit
	EWireJPerBitMM float64 // wire transfer, J per bit-mm

	// tileSideMM returns the placement-grid pitch for a router tile holding
	// p cores (§3.3.2 core areas: 4 / 1 mm^2 at 45 / 22 nm).
	CoreAreaMM2 float64
}

// Tech45 is the 45 nm / 1.0 V point.
func Tech45() Tech {
	return Tech{
		Name:           "45nm",
		VDD:            1.0,
		BufBitAreaMM2:  4.0e-6,
		XbarCellMM2:    1.5e-5,
		AllocCellMM2:   2.0e-6,
		WirePitchMM:    2.8e-4,
		WirePitchIntMM: 1.4e-4,
		BufLeakWPerBit: 5.0e-7,
		XbarLeakWPerPB: 1.0e-6,
		WireLeakWPerMM: 1.5e-6,
		EBufRWJPerBit:  1.2e-13,
		EXbarJPerBit:   2.4e-13,
		EWireJPerBitMM: 2.0e-14,
		CoreAreaMM2:    4.0,
	}
}

// Tech22 is the 22 nm / 0.8 V point. Logic shrinks quadratically; wires
// shrink less, so they take a relatively larger share (§5.5).
func Tech22() Tech {
	return Tech{
		Name:           "22nm",
		VDD:            0.8,
		BufBitAreaMM2:  1.0e-6,
		XbarCellMM2:    3.8e-6,
		AllocCellMM2:   5.0e-7,
		WirePitchMM:    1.6e-4,
		WirePitchIntMM: 0.8e-4,
		BufLeakWPerBit: 3.0e-7,
		XbarLeakWPerPB: 6.0e-7,
		WireLeakWPerMM: 1.2e-6,
		EBufRWJPerBit:  4.8e-14,
		EXbarJPerBit:   9.6e-14,
		EWireJPerBitMM: 1.3e-14,
		CoreAreaMM2:    1.0,
	}
}

// tileSideMM is the physical pitch of one placement-grid cell: a router and
// its p cores.
func (t Tech) tileSideMM(p int) float64 {
	if p < 1 {
		p = 1
	}
	return math.Sqrt(t.CoreAreaMM2 * float64(p))
}

// BufferConfig is the buffer storage a design is priced at.
type BufferConfig struct {
	// TotalFlits is the network-wide buffer storage in flits;
	// per-router storage is TotalFlits / Nr.
	TotalFlits float64
	VCs        int // virtual channels per link, which size the allocators
	FlitBits   int
}

// Buffers prices a buffer plan on a placed network: the flits and VC count
// the simulator allocates for it (core.Buffers.Flits).
func Buffers(n *topo.Network, b core.Buffers, flitBits int) BufferConfig {
	return BufferConfig{TotalFlits: float64(b.Flits(n)), VCs: b.VCs, FlitBits: flitBits}
}

// AreaReport splits network area by component, in cm^2, following the
// paper's breakdown (Fig. 15-17): routers in the active layer (buffers,
// allocators), routers in intermediate layers (crossbars), router-router
// wires (global layer) and router-node wires.
type AreaReport struct {
	ARouters float64 // active-layer router area (buffers + allocators)
	IRouters float64 // intermediate-layer router area (crossbars)
	RRWires  float64 // router-router wires, global layer
	RNWires  float64 // router-node wires
}

// Total returns the summed area in cm^2.
func (a AreaReport) Total() float64 { return a.ARouters + a.IRouters + a.RRWires + a.RNWires }

// PerNodeCM2 normalises by node count.
func (a AreaReport) PerNodeCM2(n int) AreaReport {
	f := 1 / float64(n)
	return AreaReport{a.ARouters * f, a.IRouters * f, a.RRWires * f, a.RNWires * f}
}

const mm2PerCM2 = 100.0

// Area computes the area report for a placed network with the given buffer
// configuration.
func Area(n *topo.Network, buf BufferConfig, t Tech) AreaReport {
	k := float64(n.RouterRadix())
	w := float64(buf.FlitBits)
	nr := float64(n.Nr)

	bufBits := buf.TotalFlits * w
	aRouters := bufBits*t.BufBitAreaMM2 + nr*k*k*float64(buf.VCs)*t.AllocCellMM2
	iRouters := nr * k * k * w * t.XbarCellMM2

	tile := t.tileSideMM(n.P)
	rrMM := float64(n.TotalWireLength()) * tile
	rrWires := rrMM * w * 2 * t.WirePitchMM // two directions per link
	// Router-node wires: each node one link of ~half a tile.
	rnMM := float64(n.N()) * 0.5 * tile
	rnWires := rnMM * w * 2 * t.WirePitchIntMM

	return AreaReport{
		ARouters: aRouters / mm2PerCM2,
		IRouters: iRouters / mm2PerCM2,
		RRWires:  rrWires / mm2PerCM2,
		RNWires:  rnWires / mm2PerCM2,
	}
}

// StaticReport splits leakage power in watts.
type StaticReport struct {
	Routers float64 // buffers + crossbars + allocators
	Wires   float64
}

// Total returns summed static power.
func (s StaticReport) Total() float64 { return s.Routers + s.Wires }

// Static computes leakage power.
func Static(n *topo.Network, buf BufferConfig, t Tech) StaticReport {
	k := float64(n.RouterRadix())
	w := float64(buf.FlitBits)
	nr := float64(n.Nr)
	bufBits := buf.TotalFlits * w
	routers := bufBits*t.BufLeakWPerBit + nr*k*k*w*t.XbarLeakWPerPB
	tile := t.tileSideMM(n.P)
	wireMM := float64(n.TotalWireLength())*tile*w*2 + float64(n.N())*0.5*tile*w*2
	wires := wireMM * t.WireLeakWPerMM
	// Leakage scales roughly with VDD.
	scale := t.VDD
	return StaticReport{Routers: routers * scale, Wires: wires * scale}
}

// Activity summarises the traffic a dynamic-power estimate is based on.
type Activity struct {
	FlitsPerCycle float64 // network-wide accepted flits per cycle
	AvgHops       float64 // router-to-router hops per flit
	AvgWireMM     float64 // mean wire length per hop, mm
	CycleNs       float64
	FlitBits      int
	RouterRadix   int // k: crossbar traversal energy grows with port count
}

// ActivityOf derives Activity from simulation output.
func ActivityOf(n *topo.Network, throughputPerNode, avgHops float64, t Tech, flitBits int) Activity {
	return Activity{
		FlitsPerCycle: throughputPerNode * float64(n.N()),
		AvgHops:       avgHops,
		AvgWireMM:     n.AvgWireLength() * t.tileSideMM(n.P),
		CycleNs:       n.CycleTimeNs,
		FlitBits:      flitBits,
		RouterRadix:   n.RouterRadix(),
	}
}

// DynamicReport splits dynamic power in watts.
type DynamicReport struct {
	Buffers   float64
	Crossbars float64
	Wires     float64
}

// Total returns summed dynamic power.
func (d DynamicReport) Total() float64 { return d.Buffers + d.Crossbars + d.Wires }

// refRadix normalises the crossbar-energy constant: EXbarJPerBit is the
// per-bit traversal energy of a radix-12 crossbar; larger crossbars cost
// proportionally more (longer internal wires and bigger muxes), matching
// DSENT's radix dependence and the paper's Fig. 16c dynamic-power split.
const refRadix = 12.0

// Dynamic computes switching power for the given activity. Each flit writes
// and reads a buffer and crosses a crossbar at every router on its path
// (hops+1 routers), and drives AvgHops wires of AvgWireMM millimetres.
func Dynamic(act Activity, t Tech) DynamicReport {
	if act.CycleNs <= 0 {
		act.CycleNs = 1
	}
	flitsPerSec := act.FlitsPerCycle / (act.CycleNs * 1e-9)
	bits := float64(act.FlitBits)
	routersPerFlit := act.AvgHops + 1
	radixScale := 1.0
	if act.RouterRadix > 0 {
		radixScale = float64(act.RouterRadix) / refRadix
	}
	return DynamicReport{
		Buffers:   flitsPerSec * bits * routersPerFlit * t.EBufRWJPerBit,
		Crossbars: flitsPerSec * bits * routersPerFlit * t.EXbarJPerBit * radixScale,
		Wires:     flitsPerSec * bits * act.AvgHops * act.AvgWireMM * t.EWireJPerBitMM,
	}
}

// ThroughputPerPower returns the paper's §5.4 metric: flits delivered per
// cycle divided by the power consumed during delivery (flits/J after unit
// conversion).
func ThroughputPerPower(flitsPerCycle float64, cycleNs float64, static StaticReport, dyn DynamicReport) float64 {
	totalW := static.Total() + dyn.Total()
	if totalW <= 0 {
		return 0
	}
	flitsPerSec := flitsPerCycle / (cycleNs * 1e-9)
	return flitsPerSec / totalW // flits per joule
}

// EnergyDelay returns the energy-delay product: total power times run time
// (energy) times average packet latency.
func EnergyDelay(static StaticReport, dyn DynamicReport, runSeconds, avgLatencySeconds float64) float64 {
	return (static.Total() + dyn.Total()) * runSeconds * avgLatencySeconds
}
