package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// childEnv marks a process as a suite child. The real binary ignores it; the
// test binary's TestMain uses it to act as the benchmark instead of running
// tests, so the suite can re-execute "itself" under go test too.
const childEnv = "SLIMNOC_BENCHMARK_CHILD"

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// reported is one number of the suite's tables. N is the sample count behind
// a percentile (0 where the value is not one).
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// workloadReport is one workload's row in both tables.
type workloadReport struct {
	Name      string              `json:"name"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]reported `json:"end_to_end"`
	PerLayer  map[string]reported `json:"per_layer,omitempty"`
}

// suiteReport is what -json writes: the printed tables, machine-readable.
type suiteReport struct {
	Header    map[string]string `json:"header"`
	Passes    int               `json:"passes"`
	Seconds   float64           `json:"seconds_per_pass"`
	Workloads []*workloadReport `json:"workloads"`
}

// suite runs child processes of this binary, one workload run each, never
// two at a time.
type suite struct {
	o       options
	e       *env
	exe     string
	seconds float64
	stderr  io.Writer
}

// child runs one workload once in a fresh process and returns its result
// line and, for untraced runs, every op latency.
func (s *suite) child(w *workload, trace int) (resultLine, []float64, error) {
	var line resultLine
	samples := filepath.Join(s.e.dir, "samples.json")
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(s.o.seed), "-seconds", fmt.Sprint(s.seconds), "-trace", fmt.Sprint(trace)}
	if trace == 0 {
		args = append(args, "-samples", samples)
	}
	if s.o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(s.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = s.stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Start()
	if err == nil {
		s.e.child.Store(cmd.Process)
		err = cmd.Wait()
		s.e.child.Store(nil)
	}
	out := stdout.Bytes()
	if err != nil {
		return line, nil, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, nil, fmt.Errorf("%s (trace %d): result line: %w", w.name, trace, err)
	}
	var ms []float64
	if trace == 0 {
		data, err := os.ReadFile(samples)
		if err == nil {
			err = json.Unmarshal(data, &ms)
		}
		if err != nil {
			return line, nil, fmt.Errorf("%s: samples: %w", w.name, err)
		}
	}
	return line, ms, nil
}

// untraced runs every workload passes times, round-robin, and folds the
// passes: rates and set-up are the median of passes, peak RSS the maximum,
// percentiles pool the ops of all passes.
func (s *suite) untraced() ([]*workloadReport, error) {
	type acc struct {
		byMetric map[string][]float64
		pooled   []float64
	}
	accs := make([]acc, len(workloads))
	reports := make([]*workloadReport, len(workloads))
	for i, w := range workloads {
		accs[i].byMetric = make(map[string][]float64)
		reports[i] = &workloadReport{Name: w.name, EndToEnd: make(map[string]reported)}
	}
	for pass := 0; pass < s.o.passes; pass++ {
		for i, w := range workloads {
			fmt.Fprintf(s.stderr, "benchmark: pass %d/%d %s\n", pass+1, s.o.passes, w.name)
			line, ms, err := s.child(w, 0)
			if err != nil {
				return nil, err
			}
			reports[i].Attempted += line.Attempted
			reports[i].Failed += line.Failed
			for name, v := range line.Metrics {
				accs[i].byMetric[name] = append(accs[i].byMetric[name], v.Value)
			}
			accs[i].pooled = append(accs[i].pooled, ms...)
		}
	}
	for i, r := range reports {
		pooled := sorted(accs[i].pooled)
		for _, d := range e2eMetrics {
			v := reported{Value: median(accs[i].byMetric[d.name]), Unit: d.unit}
			switch d.name {
			case "peak_rss_mb":
				v.Value = slices.Max(accs[i].byMetric[d.name])
			case "op_ms_p50":
				v.Value, v.N = percentile(pooled, 0.50), len(pooled)
			case "op_ms_p90":
				v.Value, v.N = percentile(pooled, 0.90), len(pooled)
			}
			r.EndToEnd[d.name] = v
		}
		r.EndToEnd["failed_frac"] = reported{Value: float64(r.Failed) / float64(max(r.Attempted, 1)), Unit: "ratio", N: r.Attempted}
	}
	return reports, nil
}

// traced adds one traced run per workload to the reports.
func (s *suite) traced(reports []*workloadReport) error {
	for i, w := range workloads {
		fmt.Fprintf(s.stderr, "benchmark: traced pass %s\n", w.name)
		line, _, err := s.child(w, 1)
		if err != nil {
			return err
		}
		reports[i].Attempted += line.Attempted
		reports[i].Failed += line.Failed
		reports[i].PerLayer = make(map[string]reported)
		for name, v := range line.Metrics {
			reports[i].PerLayer[name] = reported{Value: v.Value, Unit: v.Unit}
		}
	}
	return nil
}

func runSuite(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	e, cleanup, err := newEnv(o.seed, o.smoke)
	if err != nil {
		return err
	}
	defer cleanup()
	s := &suite{o: o, e: e, exe: exe, seconds: o.secondsOr(suiteSeconds), stderr: stderr}
	printHeader(stdout, e)
	if o.aa {
		return s.aa(stdout)
	}

	reports, err := s.untraced()
	if err != nil {
		return err
	}
	if err := s.traced(reports); err != nil {
		return err
	}
	printEndToEnd(stdout, reports, fmt.Sprintf("end to end: untraced, %d interleaved passes of %g s, one fresh process each", o.passes, s.seconds))
	printPerLayer(stdout, reports)
	if o.jsonPath != "" {
		rep := suiteReport{Header: make(map[string]string), Passes: o.passes, Seconds: s.seconds, Workloads: reports}
		for _, kv := range header(e) {
			rep.Header[kv[0]] = kv[1]
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, r := range reports {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d checked results were wrong", r.Name, r.Failed, r.Attempted)
		}
	}
	return nil
}

// aa runs the untraced passes twice on the same code and holds every
// end-to-end metric of every workload to its BENCHMARK.json bound.
func (s *suite) aa(stdout io.Writer) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa takes its bounds from BENCHMARK.json in the working directory: %w", err)
	}
	first, err := s.untraced()
	if err != nil {
		return err
	}
	second, err := s.untraced()
	if err != nil {
		return err
	}
	printEndToEnd(stdout, first, "A/A, first set")
	printEndToEnd(stdout, second, "A/A, second set")
	fmt.Fprintf(stdout, "\nA/A differences (second vs first, relative to first; bound from BENCHMARK.json)\n")
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	over := 0
	for i, a := range first {
		b := second[i]
		for _, m := range bf.EndToEnd {
			va, vb := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			diff := (vb - va) / va
			flag := ""
			if math.Abs(diff) > m.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", a.Name, m.Name, va, vb, 100*diff, 100*m.Bound, flag)
		}
		if b.Failed > a.Failed || a.Failed > 0 {
			fmt.Fprintf(stdout, "%-16s %-16s %14d %14d  OVER (any failure)\n", a.Name, "failed", a.Failed, b.Failed)
			over++
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metric(s) differ by more than their bound", over)
	}
	fmt.Fprintln(stdout, "A/A: every metric within its bound")
	return nil
}

func printEndToEnd(w io.Writer, reports []*workloadReport, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	cols := append(append([]metricDef(nil), e2eMetrics...), metricDef{"failed_frac", "ratio"})
	fmt.Fprintf(w, "%-16s", "workload")
	for _, c := range cols {
		fmt.Fprintf(w, " %15s", c.name)
	}
	fmt.Fprintf(w, " %8s\n%-16s", "ops(n)", "")
	for _, c := range cols {
		fmt.Fprintf(w, " %15s", "["+c.unit+"]")
	}
	fmt.Fprintln(w)
	for _, r := range reports {
		fmt.Fprintf(w, "%-16s", r.Name)
		for _, c := range cols {
			fmt.Fprintf(w, " %15.6g", r.EndToEnd[c.name].Value)
		}
		fmt.Fprintf(w, " %8d\n", r.EndToEnd["op_ms_p50"].N)
	}
	fmt.Fprintln(w, "ops(n): timed ops pooled over the passes, the sample count behind op_ms_p50 and op_ms_p90; failed_frac = failed / attempted")
}

func printPerLayer(w io.Writer, reports []*workloadReport) {
	fmt.Fprintf(w, "\n== per layer: one traced run per workload, every layer priced at the workload's operating point ==\n")
	fmt.Fprintf(w, "%-30s %-6s", "metric", "unit")
	for _, r := range reports {
		fmt.Fprintf(w, " %14s", r.Name)
	}
	fmt.Fprintln(w)
	for _, d := range layerMetrics {
		fmt.Fprintf(w, "%-30s %-6s", d.name, d.unit)
		for _, r := range reports {
			fmt.Fprintf(w, " %14.6g", r.PerLayer[d.name].Value)
		}
		fmt.Fprintln(w)
	}
}
