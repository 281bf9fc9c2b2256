package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/slimnoc"
)

// TestMain lets the test binary stand in for the benchmark binary: the suite
// re-executes os.Executable() with childEnv set, and such a child runs the
// benchmark instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// Median of passes: odd count picks the middle, even count averages the
	// middle two, and the input order is left alone.
	passes := []float64{103, 99, 250}
	if got := median(passes); got != 103 {
		t.Errorf("median(%v) = %g, want 103", passes, got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if !reflect.DeepEqual(passes, []float64{103, 99, 250}) {
		t.Errorf("median reordered its input: %v", passes)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "build", ID: 1, Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "run", ID: 2, Parent: 0, Start: ms(30), End: ms(90)},
		{Name: "put", ID: 3, Parent: 2, Start: ms(80), End: ms(90)},
		// Two overlapping children of a second op count their overlap once,
		// and a child running past its parent is clipped to it.
		{Name: "op", ID: 4, Parent: -1, Start: ms(200), End: ms(300)},
		{Name: "a", ID: 5, Parent: 4, Start: ms(210), End: ms(250)},
		{Name: "b", ID: 6, Parent: 4, Start: ms(240), End: ms(320)},
	}
	want := map[string]time.Duration{
		"op":    ms(20) + ms(10), // 100-20-60, then 100-(40+50 clipped and merged)
		"build": ms(20),
		"run":   ms(50),
		"put":   ms(10),
		"a":     ms(40),
		"b":     ms(80),
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSegmentRates(t *testing.T) {
	s := func(n int) time.Duration { return time.Duration(n) * time.Second }
	// Two sessions; cuts at 0, 2 s, 4 s with 1 s then 3 s of CPU used.
	samples := [][]opSample{
		{{end: s(1)}, {end: s(2)}, {end: s(3)}, {end: s(4)}},
		{{end: s(2)}, {end: s(4)}, {end: s(5)}}, // the last one ends after the final cut
	}
	cuts := []boundary{{s(0), s(0)}, {s(2), s(1)}, {s(4), s(4)}}
	rates, cpu := segmentRates(samples, cuts)
	if want := []float64{1.5, 1.5}; !reflect.DeepEqual(rates, want) {
		t.Errorf("rates = %v, want %v", rates, want)
	}
	if want := []float64{1000.0 / 3, 1000}; !reflect.DeepEqual(cpu, want) {
		t.Errorf("cpu ms per op = %v, want %v", cpu, want)
	}
}

// generated renders everything the generator derives from a seed.
func generated(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, w := range workloads {
		if err := enc.Encode(pointSpecs(w.point, seed)); err != nil {
			t.Fatal(err)
		}
	}
	for session := 0; session < maxC; session++ {
		g := newReqGen(seed, session, 200)
		for i := 0; i < 500; i++ {
			r := g.next()
			if err := enc.Encode([]any{r.kind, r.hot, r.transfers}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestGeneratedInputsFollowTheSeed(t *testing.T) {
	a, b, c := generated(t, 1), generated(t, 1), generated(t, 2)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated the same inputs")
	}
}

func TestRequestMix(t *testing.T) {
	seen := make(map[[3]int]bool)
	var kinds [numKinds]int
	const n = 20000
	for session := 0; session < maxC; session++ {
		g := newReqGen(3, session, 200)
		for i := 0; i < n; i++ {
			r := g.next()
			kinds[r.kind]++
			if r.kind == kindHit {
				continue
			}
			// The first transfer of every fresh request is new to all sessions.
			tr := r.transfers[0]
			key := [3]int{tr.Src, tr.Dst, tr.Flits}
			if seen[key] || tr.Src == tr.Dst || tr.Flits < 1 || tr.Flits > maxFlits {
				t.Fatalf("session %d request %d: transfer %+v repeated or malformed", session, i, tr)
			}
			seen[key] = true
		}
	}
	for k, want := range [numKinds]float64{0.48, 0.40, 0.12} {
		if got := float64(kinds[k]) / (maxC * n); math.Abs(got-want) > 0.02 {
			t.Errorf("%s share = %.3f, want %.2f", kindSpans[k], got, want)
		}
	}
}

func TestCheckerPinsAndSelfConsistency(t *testing.T) {
	p := pins{slimnoc.EngineVersion: {"w": {"0": "aa", "3": "bb"}}}
	c := newChecker(p, "w", pinSeed)
	if !c.pinned || !c.ok(0, "aa") || c.ok(0, "zz") || !c.ok(3, "bb") {
		t.Error("pinned slots must accept exactly their pinned digest")
	}
	if !c.ok(1, "first") || !c.ok(1, "first") || c.ok(1, "second") {
		t.Error("an unpinned slot must hold every repeat to its first digest")
	}
	if !c.ok(-1, "anything") {
		t.Error("slot -1 has no reference")
	}
	if other := newChecker(p, "w", pinSeed+1); other.pinned || !other.ok(0, "zz") {
		t.Error("pins apply to the pinned seed only")
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the harness to the same
// workloads and metrics, by name, unit and order.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", bf.RunSeconds, runSeconds)
	}
	var gotW, wantW [][2]string
	for _, w := range bf.Workloads {
		gotW = append(gotW, [2]string{w.Name, w.Why})
	}
	for _, w := range workloads {
		wantW = append(wantW, [2]string{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json %v\n code %v", gotW, wantW)
	}
	var got, want []metricDef
	for _, m := range bf.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, e2eMetrics)
	}
	for _, m := range bf.PerLayer {
		want = append(want, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(want, layerMetrics) {
		t.Errorf("per_layer differs:\n json %v\n code %v", want, layerMetrics)
	}
}

// TestSmokeSuite runs the whole suite — every workload untraced and traced,
// each in a child process — at tiny run lengths, and checks what it emits.
func TestSmokeSuite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-passes", "1", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke suite exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep suiteReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	names := func(defs []metricDef, extra ...string) []string {
		out := append([]string(nil), extra...)
		for _, d := range defs {
			out = append(out, d.name)
		}
		return out
	}
	for i, r := range rep.Workloads {
		if r.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, r.Name, workloads[i].name)
		}
		if r.Failed != 0 || r.Attempted == 0 || r.EndToEnd["failed_frac"].Value != 0 {
			t.Errorf("%s: %d failed of %d attempted", r.Name, r.Failed, r.Attempted)
		}
		for kind, c := range map[string]struct {
			got  map[string]reported
			want []string
		}{
			"end_to_end": {r.EndToEnd, names(e2eMetrics, "failed_frac")},
			"per_layer":  {r.PerLayer, names(layerMetrics)},
		} {
			if len(c.got) != len(c.want) {
				t.Errorf("%s: %d %s metrics, want %d", r.Name, len(c.got), kind, len(c.want))
			}
			for _, name := range c.want {
				if m, ok := c.got[name]; !ok || m.Unit == "" {
					t.Errorf("%s: %s metric %s missing or without a unit", r.Name, kind, name)
				}
			}
		}
	}
	if left, _ := filepath.Glob(".bench_tmp-*"); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
