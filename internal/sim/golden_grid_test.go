package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// The grid fixture pins the full Result and EngineStats of the Table 4
// baselines' dimension-ordered routes (mesh XY, dateline torus DOR, FBF XY,
// hierarchical PFBF XY) on small presets, across edge and central buffers,
// two VC counts, two loads and SMART on/off. The other fixtures route SN
// minimally; this one is the proof that a change to how grid routes are
// stored or walked moves no flit. The wide cases (wideGridCases) pin routers
// whose input slots (ports x VCs) span more than one 64-bit word, and the
// adaptive cases (adaptiveGridCases) the §6 policies on FBF. Re-pin (only
// with an EngineVersion bump) with GOLDEN_UPDATE=1 go test ./...
const goldenGridPath = "testdata/golden_grid.json"

// gridRecord is one fixture entry: the run's Result and its engine
// telemetry.
type gridRecord struct {
	Result sim.Result
	Engine sim.EngineStats
}

// gridNet is one small grid preset (the slimnoc Table 4 / §5.6 shapes).
type gridNet struct {
	name  string
	build func() *topo.Network
	kind  routing.Kind
}

func gridNets() []gridNet {
	return []gridNet{
		{"cm4", func() *topo.Network { return topo.Mesh2D(10, 5, 4) },
			routing.Kind{Class: routing.ClassMesh, RX: 10, RY: 5}},
		{"t2d4", func() *topo.Network { return topo.Torus2D(10, 5, 4) },
			routing.Kind{Class: routing.ClassTorus, RX: 10, RY: 5}},
		{"t2d54", func() *topo.Network { return topo.Torus2D(6, 3, 3) },
			routing.Kind{Class: routing.ClassTorus, RX: 6, RY: 3}},
		{"fbf54", func() *topo.Network { return topo.FBF(6, 3, 3) },
			routing.Kind{Class: routing.ClassFBF, RX: 6, RY: 3}},
		{"pfbf3", func() *topo.Network { return topo.PFBF(2, 2, 4, 4, 3) },
			routing.Kind{Class: routing.ClassPFBF, PX: 2, PY: 2, RX: 4, RY: 4}},
	}
}

type gridCase struct {
	Name   string
	Net    gridNet
	Scheme core.Scheme
	VCs    int
	Rate   float64
	H      int
	Policy string // adaptive policy (adaptivePolicy's names); "" routes the grid's static routes
}

func gridCases() []gridCase {
	var cases []gridCase
	for _, gn := range gridNets() {
		for _, sc := range []struct {
			tag    string
			scheme core.Scheme
		}{{"eb", core.EB}, {"cbr", core.CBR}} {
			for _, vcs := range []int{2, 4} {
				for _, rate := range []float64{0.04, 0.20} {
					for _, h := range []int{1, 9} {
						cases = append(cases, gridCase{
							Name: fmt.Sprintf("%s_%s_v%d_r%.2f_h%d", gn.name, sc.tag, vcs, rate, h),
							Net:  gn, Scheme: sc.scheme, VCs: vcs, Rate: rate, H: h,
						})
					}
				}
			}
		}
	}
	cases = append(cases, wideGridCases()...)
	return append(cases, adaptiveGridCases()...)
}

// adaptiveGridCases route fbf54 per packet with UGAL-L and minimal-adaptive
// (the paper's XY-ADAPT comparison point) on 4 VCs, under every buffer
// scheme, lightly and heavily loaded.
func adaptiveGridCases() []gridCase {
	fbf54 := gridNets()[3]
	var cases []gridCase
	for _, policy := range []string{"ugal-l", "min-adapt"} {
		for _, sc := range []struct {
			tag    string
			scheme core.Scheme
		}{{"eb", core.EB}, {"cbr", core.CBR}, {"el", core.EL}} {
			for _, rate := range []float64{0.04, 0.20} {
				cases = append(cases, gridCase{
					Name: fmt.Sprintf("%s_%s_%s_v4_r%.2f_h1", fbf54.name, policy, sc.tag, rate),
					Net:  fbf54, Scheme: sc.scheme, VCs: 4, Rate: rate, H: 1, Policy: policy,
				})
			}
		}
	}
	return cases
}

// wideGridCases are saturated runs on routers whose input slots span more
// than one occupancy word, under every buffer scheme, SMART on and off:
// fbf54 at 10 VCs (7 ports, 70 slots, the last port's block straddling
// words 0 and 1), fbf4 at 10 VCs (13 ports, 130 slots, three words) and cm4
// at 20 VCs (80 slots; mesh routes use VC hop%vcs, so the occupied VCs of
// port 3's block lie on both sides of the word boundary).
func wideGridCases() []gridCase {
	nets := gridNets()
	fbf4 := gridNet{"fbf4", func() *topo.Network { return topo.FBF(10, 5, 4) },
		routing.Kind{Class: routing.ClassFBF, RX: 10, RY: 5}}
	var cases []gridCase
	for _, w := range []struct {
		net gridNet
		vcs int
	}{{nets[3], 10}, {fbf4, 10}, {nets[0], 20}} { // fbf54, fbf4, cm4
		for _, sc := range []struct {
			tag    string
			scheme core.Scheme
		}{{"eb", core.EB}, {"el", core.EL}, {"cbr", core.CBR}} {
			for _, h := range []int{1, 9} {
				cases = append(cases, gridCase{
					Name: fmt.Sprintf("%s_%s_v%d_r0.60_h%d", w.net.name, sc.tag, w.vcs, h),
					Net:  w.net, Scheme: sc.scheme, VCs: w.vcs, Rate: 0.60, H: h,
				})
			}
		}
	}
	return cases
}

func runGridCase(t *testing.T, c gridCase, jobs int) gridRecord {
	t.Helper()
	net := c.Net.build()
	tab, err := routing.NewTable(net, c.Net.kind, c.VCs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Net:      net,
		Table:    tab,
		Adaptive: adaptivePolicy(c.Policy),
		Buffers:  core.Buffers{VCs: c.VCs, Scheme: c.Scheme, H: c.H},
		Traffic: &traffic.Synthetic{N: net.N(), Rate: c.Rate, PacketFlits: 6,
			Pattern: traffic.Uniform{N: net.N()}},
		Seed:          109,
		EngineJobs:    jobs,
		WarmupCycles:  500,
		MeasureCycles: 1500,
		DrainCycles:   1500,
	}
	s, res := runCfg(t, cfg)
	return gridRecord{Result: res, Engine: s.EngineStats()}
}

// TestGoldenGrid replays every grid case serially and split across four
// domains against the fixture.
func TestGoldenGrid(t *testing.T) {
	serial, par := make(map[string]gridRecord), make(map[string]gridRecord)
	for _, c := range gridCases() {
		t.Run(c.Name, func(t *testing.T) {
			serial[c.Name] = runGridCase(t, c, 0)
			par[c.Name] = runGridCase(t, c, 4)
		})
	}
	golden.Check(t, goldenGridPath, sim.EngineVersion, serial)
	golden.Check(t, goldenGridPath, sim.EngineVersion, par)
}
