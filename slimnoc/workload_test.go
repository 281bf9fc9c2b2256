// Tests for the workload axes at the facade layer: spec validation, the
// process table, sweep expansion and labelling, point-key stability, and
// end-to-end campaign determinism for mixed-process grids.

package slimnoc

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"runtime"
	"testing"

	"repro/slimnoc/store"
)

// workloadRun returns a quick runnable base for workload tests.
func workloadRun(ts TrafficSpec) RunSpec {
	return RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: ts,
		Sim:     SimSpec{WarmupCycles: 200, MeasureCycles: 500, DrainCycles: 1200, Seed: 3},
	}
}

// TestWorkloadSpecsRun executes one spec per workload axis value end to end
// through the facade and checks each delivers traffic.
func TestWorkloadSpecsRun(t *testing.T) {
	cases := map[string]TrafficSpec{
		"bernoulli": {Pattern: "rnd", Rate: 0.05},
		"burst":     {Pattern: "rnd", Rate: 0.05, Process: "burst", BurstLen: 8, Duty: 0.25},
		"mmpp":      {Pattern: "rnd", Rate: 0.05, Process: "mmpp", ModFactor: 1.8, ModPeriod: 100},
		"hotspot":   {Pattern: "rnd", Rate: 0.05, HotspotFraction: 0.2, HotspotCount: 4},
		"bimodal":   {Pattern: "rnd", Rate: 0.05, SizeMix: "bimodal"},
		"reqreply":  {Pattern: "rnd", Process: "reqreply", Window: 2},
	}
	for name, ts := range cases {
		name, ts := name, ts
		t.Run(name, func(t *testing.T) {
			res, err := Run(t.Context(), workloadRun(ts))
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Delivered == 0 {
				t.Fatal("workload delivered nothing")
			}
			if res.Metrics.Throughput <= 0 || res.Metrics.OfferedLoad <= 0 {
				t.Errorf("accepted/offered not surfaced: %+v", res.Metrics)
			}
		})
	}
}

// TestReqReplySelfThrottles checks the closed loop's defining property
// through the facade: unlike an overdriven open-loop run, accepted and
// offered loads track each other because the window caps injection.
func TestReqReplySelfThrottles(t *testing.T) {
	res, err := Run(t.Context(), workloadRun(TrafficSpec{Pattern: "rnd", Process: "reqreply", Window: 4}))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Saturated {
		t.Error("closed loop reported saturation; the window should self-throttle")
	}
	if m.OfferedLoad == 0 || m.Throughput < 0.8*m.OfferedLoad {
		t.Errorf("accepted %.4f far below offered %.4f: closed loop not throttling", m.Throughput, m.OfferedLoad)
	}
}

// TestTrafficSpecValidation covers the workload-field rejection paths and
// the accepted boundary values.
func TestTrafficSpecValidation(t *testing.T) {
	bad := []TrafficSpec{
		{Pattern: "rnd", Rate: 0.05, Process: "nope"},
		{Pattern: "rnd", Rate: 0.05, Process: "burst", BurstLen: 0.5},
		{Pattern: "rnd", Rate: 0.05, Process: "burst", Duty: 1.5},
		{Pattern: "rnd", Rate: 0.05, Process: "mmpp", ModFactor: 3},
		{Pattern: "rnd", Rate: 0.05, Process: "mmpp", ModPeriod: 0.2},
		{Pattern: "rnd", Rate: 0.05, HotspotFraction: 1.5},
		{Pattern: "rnd", Rate: 0.05, HotspotFraction: 0.2, HotspotCount: -1},
		{Pattern: "rnd", Rate: 0.05, SizeMix: "trimodal"},
		{Pattern: "rnd", Rate: 0.05, SizeMix: "bimodal", ShortFlits: 6},
		{Pattern: "rnd", Rate: 0.05, SizeMix: "bimodal", ShortFrac: 2},
		{Pattern: "rnd", Process: "reqreply", Window: -1},
	}
	for i, ts := range bad {
		if err := workloadRun(ts).Validate(); err == nil {
			t.Errorf("bad traffic spec %d (%+v) accepted", i, ts)
		}
	}
	good := []TrafficSpec{
		{Pattern: "rnd", Rate: 0.05, Process: "BERNOULLI"}, // case-folds, canonicalizes
		{Pattern: "rnd", Rate: 0.05, SizeMix: "Fixed"},
		{Pattern: "rnd", Rate: 0.05, Process: "burst"}, // all shape params defaulted
		{Pattern: "rnd", Rate: 0.05, HotspotFraction: 1, HotspotCount: 1},
	}
	for i, ts := range good {
		if err := workloadRun(ts).Validate(); err != nil {
			t.Errorf("good traffic spec %d rejected: %v", i, err)
		}
	}
	// Oversized hotspot counts are a build-time error (they need the node
	// count), not a validation error.
	if _, err := Run(t.Context(), workloadRun(TrafficSpec{Pattern: "rnd", Rate: 0.05,
		HotspotFraction: 0.2, HotspotCount: 1000})); err == nil {
		t.Error("hotspot_count larger than the network accepted")
	}
}

// TestProcessRegistryComplete builds every process.s example spec
// into a source, mirroring the other name-table completeness tests.
func TestProcessRegistryComplete(t *testing.T) {
	net, _, err := BuildNetwork(NetworkSpec{Preset: "t2d54"})
	if err != nil {
		t.Fatal(err)
	}
	names := processes.names
	if len(names) < 4 {
		t.Fatalf("expected at least 4 processes, have %v", names)
	}
	for _, name := range names {
		e, err := processes.lookup(name)
		if err != nil {
			t.Errorf("%s: listed but not resolvable: %v", name, err)
			continue
		}
		if e.section == "" {
			t.Errorf("%s: no section recorded", name)
		}
		ex := e.example.normalizedExampleFor(name)
		te, err := traffics.lookup(ex.Pattern)
		if err != nil {
			t.Errorf("%s: example pattern: %v", name, err)
			continue
		}
		src, err := te.source(net, ex)
		if err != nil {
			t.Errorf("%s: example does not build: %v", name, err)
			continue
		}
		if src == nil {
			t.Errorf("%s: nil source", name)
		}
	}
}

// normalizedExampleFor asserts the example names its own process (modulo the
// bernoulli canonicalization) and returns it with spec normalization applied.
func (ts TrafficSpec) normalizedExampleFor(name string) TrafficSpec {
	spec := RunSpec{Network: NetworkSpec{Preset: "t2d54"}, Traffic: ts}.Normalized()
	got := spec.Traffic.Process
	if got == "" {
		got = "bernoulli"
	}
	if got != name {
		panic("example process " + got + " does not match table name " + name)
	}
	return spec.Traffic
}

// TestSweepProcessAxis pins the new axis: expansion order, per-point
// process override, and workload tokens in point names.
func TestSweepProcessAxis(t *testing.T) {
	sweep := SweepSpec{
		Name: "mix",
		Base: RunSpec{
			Network: NetworkSpec{Preset: "t2d54"},
			Traffic: TrafficSpec{Rate: 0.05, BurstLen: 4},
			Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 600, Seed: 7},
		},
		Axes: SweepAxes{
			Patterns:  []string{"rnd", "shf"},
			Processes: []string{"bernoulli", "burst"},
			Loads:     []float64{0.02, 0.05},
		},
	}
	if got := sweep.NumPoints(); got != 8 {
		t.Fatalf("NumPoints = %d, want 8", got)
	}
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}
	// Nesting: patterns > processes > loads.
	wantProc := []string{"", "", "burst", "burst", "", "", "burst", "burst"}
	for i, p := range points {
		if p.Traffic.Process != wantProc[i] {
			t.Errorf("point %d process %q, want %q", i, p.Traffic.Process, wantProc[i])
		}
	}
	// The base's BurstLen is inert under bernoulli — normalization clears
	// it, so the bernoulli points carry no workload token at all — and live
	// under burst, where it labels the point.
	if points[0].Name != "mix/rnd/load0.020" {
		t.Errorf("bernoulli point name %q (inert shape fields must not label)", points[0].Name)
	}
	if points[0].Traffic.BurstLen != 0 {
		t.Errorf("bernoulli point kept inert burst_len %g", points[0].Traffic.BurstLen)
	}
	if points[2].Name != "mix/rnd/load0.020/burst/bl4" {
		t.Errorf("burst point name %q, want the process token", points[2].Name)
	}
	// Workload tokens distinguish points that differ only in process.
	if points[0].Name == points[2].Name {
		t.Error("mixed-process points share a name")
	}
}

// TestTrafficLabel covers the token renderer directly.
func TestTrafficLabel(t *testing.T) {
	if got := TrafficLabel(TrafficSpec{Pattern: "rnd", Rate: 0.06}); len(got) != 0 {
		t.Errorf("default traffic produced tokens %v", got)
	}
	full := TrafficSpec{Pattern: "rnd", Rate: 0.06, Process: "burst", BurstLen: 8, Duty: 0.25,
		HotspotFraction: 0.2, HotspotCount: 4, SizeMix: "bimodal", Window: 4}
	got := TrafficLabel(full)
	want := []string{"burst", "bl8", "duty0.25", "hot0.2x4", "bimodal", "w4"}
	if len(got) != len(want) {
		t.Fatalf("tokens %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCampaignMixedProcessSerialMatchesParallel extends the core campaign
// determinism contract to the workload axes: a sweep mixing temporal
// processes, hotspot overlays and the closed loop yields byte-identical
// per-point metrics at any job count.
func TestCampaignMixedProcessSerialMatchesParallel(t *testing.T) {
	base := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Rate: 0.05, HotspotFraction: 0.1},
		Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 800, Seed: 11},
	}
	sweep := SweepSpec{
		Name: "mixed",
		Base: base,
		Axes: SweepAxes{
			Patterns:  []string{"rnd"},
			Processes: []string{"bernoulli", "burst", "mmpp", "reqreply"},
			Seeds:     []int64{11, 12},
		},
	}
	run := func(jobs int) []PointResult {
		points, err := sweep.Points()
		if err != nil {
			t.Fatal(err)
		}
		results, err := NewCampaign(WithJobs(jobs)).Run(t.Context(), points)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1)
	parallel := run(runtime.NumCPU())
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("point %d errors: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		sm, _ := json.Marshal(serial[i].Result.Metrics)
		pm, _ := json.Marshal(parallel[i].Result.Metrics)
		if !bytes.Equal(sm, pm) {
			t.Errorf("point %d (%s): serial %s != parallel %s", i, serial[i].Spec.Name, sm, pm)
		}
	}
}

// TestPointKeyWorkloadFields pins the key behaviour of the new axes: the
// canonicalized defaults hash like their omitted spellings (so old stores
// stay valid), while every execution-relevant workload field changes the key.
func TestPointKeyWorkloadFields(t *testing.T) {
	base := workloadRun(TrafficSpec{Pattern: "rnd", Rate: 0.05})
	k0, err := PointKey(base)
	if err != nil {
		t.Fatal(err)
	}
	spelled := base
	spelled.Traffic.Process = "bernoulli"
	spelled.Traffic.SizeMix = "fixed"
	ks, err := PointKey(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if ks != k0 {
		t.Error("spelled-out defaults (bernoulli, fixed) hash differently from omitted ones")
	}
	// Shape fields the selected process never reads are cleared by
	// normalization, so a behaviorally identical spec shares the key (and
	// the store entry) of the plain one.
	inert := base
	inert.Traffic.BurstLen = 4 // bernoulli never reads it
	inert.Traffic.Window = 9   // open loop never reads it
	ki, err := PointKey(inert)
	if err != nil {
		t.Fatal(err)
	}
	if ki != k0 {
		t.Error("inert shape fields changed the point key of an identical run")
	}
	// The closed loop ignores the open-loop rate: two reqreply specs that
	// differ only in rate are the same run and must share one key.
	rr1, rr2 := base, base
	rr1.Traffic.Process, rr1.Traffic.Rate = "reqreply", 0.1
	rr2.Traffic.Process, rr2.Traffic.Rate = "reqreply", 0.2
	krr1, err := PointKey(rr1)
	if err != nil {
		t.Fatal(err)
	}
	krr2, err := PointKey(rr2)
	if err != nil {
		t.Fatal(err)
	}
	if krr1 != krr2 {
		t.Error("reqreply specs differing only in the inert rate hash differently")
	}
	// Trace workloads ignore the whole composable axis.
	tr1 := workloadRun(TrafficSpec{Pattern: "trace", Trace: "fft"})
	tr2 := workloadRun(TrafficSpec{Pattern: "trace", Trace: "fft", Process: "burst", HotspotFraction: 0.2})
	kt1, err := PointKey(tr1)
	if err != nil {
		t.Fatal(err)
	}
	kt2, err := PointKey(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if kt1 != kt2 {
		t.Error("trace specs differing only in inert workload fields hash differently")
	}
	mutations := map[string]func(*TrafficSpec){
		"process":      func(ts *TrafficSpec) { ts.Process = "burst" },
		"burst_len":    func(ts *TrafficSpec) { ts.Process = "burst"; ts.BurstLen = 16 },
		"duty":         func(ts *TrafficSpec) { ts.Process = "burst"; ts.Duty = 0.5 },
		"mod_factor":   func(ts *TrafficSpec) { ts.Process = "mmpp"; ts.ModFactor = 1.5 },
		"hotspot":      func(ts *TrafficSpec) { ts.HotspotFraction = 0.2 },
		"hotspot_knob": func(ts *TrafficSpec) { ts.HotspotFraction = 0.2; ts.HotspotCount = 8 },
		"size_mix":     func(ts *TrafficSpec) { ts.SizeMix = "bimodal" },
		"short_frac":   func(ts *TrafficSpec) { ts.SizeMix = "bimodal"; ts.ShortFrac = 0.8 },
		"window":       func(ts *TrafficSpec) { ts.Process = "reqreply"; ts.Window = 8 },
	}
	seen := map[store.Key]string{k0: "base"}
	for name, mut := range mutations {
		s := base
		mut(&s.Traffic)
		k, err := PointKey(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestCSVSinkWorkloadColumns checks the sink emits the full traffic axis so
// mixed-process result files stay distinguishable.
func TestCSVSinkWorkloadColumns(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	spec := workloadRun(TrafficSpec{Pattern: "rnd", Rate: 0.05, Process: "burst",
		BurstLen: 8, Duty: 0.25, HotspotFraction: 0.2, HotspotCount: 4,
		SizeMix: "bimodal", Window: 0}).Normalized()
	if err := sink.Emit(PointResult{Index: 0, Spec: spec, Result: &Result{}}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]string{}
	for i, name := range rows[0] {
		col[name] = rows[1][i]
	}
	want := map[string]string{
		"process": "burst", "burst_len": "8", "duty": "0.25",
		"hotspot_frac": "0.2", "hotspot_count": "4", "size_mix": "bimodal",
	}
	for name, v := range want {
		if col[name] != v {
			t.Errorf("CSV column %s = %q, want %q", name, col[name], v)
		}
	}
	// The default process is spelled out, not blank, and defaulted shape
	// parameters report the RESOLVED values the run used, never raw zeros.
	var buf2 bytes.Buffer
	sink2 := NewCSVSink(&buf2)
	for _, ts := range []TrafficSpec{
		{Pattern: "rnd", Rate: 0.05},
		{Pattern: "rnd", Rate: 0.05, Process: "burst"}, // shape fully defaulted
	} {
		if err := sink2.Emit(PointResult{Index: 0,
			Spec: workloadRun(ts).Normalized(), Result: &Result{}}); err != nil {
			t.Fatal(err)
		}
	}
	rows2, err := csv.NewReader(&buf2).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col2 := func(row []string, name string) string {
		for i, h := range rows2[0] {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("missing column %s", name)
		return ""
	}
	if got := col2(rows2[1], "process"); got != "bernoulli" {
		t.Errorf("default process column = %q, want bernoulli", got)
	}
	if bl, d := col2(rows2[2], "burst_len"), col2(rows2[2], "duty"); bl != "8" || d != "0.25" {
		t.Errorf("defaulted burst row reports burst_len=%s duty=%s, want resolved 8/0.25", bl, d)
	}
}

// TestTrafficMatrixNeverPanics is the first row of the robustness matrix:
// every traffic pattern x temporal process, on the degenerate
// one-node network and on a small Slim NoC, for about a hundred cycles. A
// run may fail with an error or produce a result; it must not panic (the
// asym pattern used to divide by zero on a one-node network).
func TestTrafficMatrixNeverPanics(t *testing.T) {
	nets := map[string]NetworkSpec{
		"one-node":    {Topology: "mesh", X: 1, Y: 1, Conc: 1},
		"sn_subgr_54": {Preset: "sn_subgr_54"},
	}
	for netName, ns := range nets {
		for _, pattern := range traffics.names {
			entry := traffics.entries[pattern]
			for _, process := range processes.names {
				t.Run(netName+"/"+pattern+"/"+process, func(t *testing.T) {
					ts := entry.example
					ts.Rate, ts.Process = 0.5, process
					spec := RunSpec{Network: ns, Traffic: ts,
						Sim: SimSpec{WarmupCycles: 20, MeasureCycles: 60, DrainCycles: 20, Seed: 1}}
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Run panicked: %v", r)
						}
					}()
					_, _ = Run(t.Context(), spec) // an error and a result are both fine
				})
			}
		}
	}
}
