package sim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
// adaptive cases (adaptiveGridCases) the §6 policies on FBF.
//
// Regenerate (only for an intentional, documented behaviour change):
//
//	go test ./internal/sim -run TestGoldenGrid -update-golden-grid
var updateGoldenGrid = flag.Bool("update-golden-grid", false, "rewrite the grid-routing golden fixture")

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
	Scheme sim.BufferScheme
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
			scheme sim.BufferScheme
		}{{"eb", sim.EdgeBuffers}, {"cbr", sim.CentralBuffer}} {
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
			scheme sim.BufferScheme
		}{{"eb", sim.EdgeBuffers}, {"cbr", sim.CentralBuffer}, {"el", sim.ElasticLinks}} {
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
			scheme sim.BufferScheme
		}{{"eb", sim.EdgeBuffers}, {"el", sim.ElasticLinks}, {"cbr", sim.CentralBuffer}} {
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
	pb, err := routing.NewRoutingFor(net, c.Net.kind, c.VCs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Net:      net,
		Routing:  pb,
		Adaptive: adaptivePolicy(c.Policy),
		VCs:      c.VCs,
		Scheme:   c.Scheme,
		H:        c.H,
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
	got := make(map[string]gridRecord)
	for _, c := range gridCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			got[c.Name] = runGridCase(t, c, 0)
		})
	}
	if *updateGoldenGrid {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenGridPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGridPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d grid results to %s", len(got), goldenGridPath)
		return
	}

	data, err := os.ReadFile(goldenGridPath)
	if err != nil {
		t.Fatalf("read grid fixture (generate with -update-golden-grid): %v", err)
	}
	var want map[string]gridRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range gridCases() {
		g, ok := got[c.Name]
		if !ok {
			continue // filtered out by -run
		}
		w, ok := want[c.Name]
		if !ok {
			t.Errorf("case %s missing from fixture; regenerate intentionally", c.Name)
			continue
		}
		if g != w {
			t.Errorf("%s: drifted from grid fixture\n got %+v\nwant %+v", c.Name, g, w)
		}
		if par := runGridCase(t, c, 4); par != w {
			t.Errorf("%s: 4-domain run drifted from grid fixture\n got %+v\nwant %+v", c.Name, par, w)
		}
	}
	if len(got) == len(gridCases()) && len(want) != len(got) {
		t.Errorf("fixture holds %d cases, the test produces %d", len(want), len(got))
	}
}
