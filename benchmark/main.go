// Command benchmark is the repository's one benchmark: six named workloads
// over the whole stack (slimnoc.Run, the snrepro figure path, the snserve
// oracle), end-to-end metrics measured with tracing off, and per-layer
// metrics from a traced run that calls each layer's exported functions
// itself. BENCHMARK.json at the repository root declares the same names;
// README.md in this directory says what each is for.
//
//	go run ./benchmark                              the suite: every workload, 3 interleaved passes + 1 traced
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                                one run; the last stdout line is the JSON result
//	go run ./benchmark -aa                          the suite's untraced part twice, compared against the bounds
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"repro/slimnoc"
)

const (
	// runSeconds is the timed section of a single run (BENCHMARK.json's
	// run_seconds); suiteSeconds is the shorter one the suite gives each of
	// its passes so that the whole of it stays under four minutes.
	runSeconds   = 16
	suiteSeconds = 8
	smokeSeconds = 0.25
	suitePasses  = 3
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	passes   int
	jsonPath string
	spans    string
	samples  string
	aa       bool
	smoke    bool
	pin      bool
}

// secondsOr resolves the timed section's length: -seconds if given, else the
// smoke length in a smoke run, else the mode's default.
func (o options) secondsOr(def float64) float64 {
	switch {
	case o.seconds > 0:
		return o.seconds
	case o.smoke:
		return smokeSeconds
	}
	return def
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with the JSON result line (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 1, "generates every input: sim seeds, figure seeds, the serve request streams")
	fs.Float64Var(&o.seconds, "seconds", 0, fmt.Sprintf("timed section of one run (default %d for -workload, %d per pass in the suite)", runSeconds, suiteSeconds))
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics untraced, 1 the per-layer metrics traced")
	fs.IntVar(&o.passes, "passes", suitePasses, "suite: untraced passes over all workloads, interleaved")
	fs.StringVar(&o.jsonPath, "json", "", "suite: also write the printed tables to this file as JSON")
	fs.StringVar(&o.spans, "spans", "", "with -workload -trace 1: write every span to this file at exit")
	fs.StringVar(&o.samples, "samples", "", "with -workload -trace 0: write every op latency (ms) to this file; the suite pools them")
	fs.BoolVar(&o.aa, "aa", false, "suite: run the untraced passes twice and fail if any metric differs by more than its bound")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny run lengths and single repeats: checks the plumbing, measures nothing")
	fs.BoolVar(&o.pin, "pin", false, "rewrite benchmark/expected.json with this engine version's seed-1 digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.passes < 1 || o.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	var err error
	switch {
	case o.pin:
		err = writePins(stdout)
	case o.workload != "":
		err = runSingle(o, stdout, stderr)
	default:
		err = runSuite(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// newEnv makes the scratch directory — inside the working directory, so the
// benchmark touches nothing outside its checkout — and the function that
// removes it. An interrupt or SIGTERM removes it too, after passing the
// signal on to the suite's running child, and ends the process.
func newEnv(seed int64, smoke bool) (*env, func(), error) {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{seed: seed, c: min(maxC, runtime.NumCPU()), dir: dir, smoke: smoke}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if s, ok := <-sig; ok {
			if child := e.child.Load(); child != nil {
				child.Signal(s)
			}
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	return e, func() { signal.Stop(sig); close(sig); os.RemoveAll(dir) }, nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last stdout line of a single run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func toResultLine(out runOut, defs []metricDef) (resultLine, error) {
	line := resultLine{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return line, nil
}

// runSingle runs one workload in this process.
func runSingle(o options, stdout, stderr io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	seconds := o.secondsOr(runSeconds)
	e, cleanup, err := newEnv(o.seed, o.smoke)
	if err != nil {
		return err
	}
	defer cleanup()
	printHeader(stdout, e)

	var out runOut
	defs := e2eMetrics
	if o.trace == 1 {
		defs = layerMetrics
		var tr *tracer
		out, tr, err = runTraced(w, e, seconds, stderr)
		if err == nil {
			printSelfTimes(stdout, tr)
			if o.spans != "" {
				err = tr.flush(o.spans)
			}
		}
	} else {
		out, err = runUntraced(w, e, seconds, p, stderr)
		if err == nil && o.samples != "" {
			err = writeSamples(o.samples, out.latencyMs)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := toResultLine(out, defs)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}

	pinned := "unpinned (self-consistency only)"
	if out.pinned {
		pinned = "checked against expected.json pins"
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  seconds %g  trace %d  %s\n", w.name, o.seed, seconds, o.trace, pinned)
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", d.name, out.metrics[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "  %-30s %14.6g ratio (%d failed of %d attempted)\n", "failed_frac",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "  note:", n)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(data))
	return nil
}

// printSelfTimes lists the span names of a traced run by self time: a span's
// duration minus what its child spans cover.
func printSelfTimes(w io.Writer, tr *tracer) {
	self := selfTimes(tr.spans)
	count := make(map[string]int)
	for _, s := range tr.spans {
		count[s.Name]++
	}
	fmt.Fprintf(w, "self time by span name (%d spans):\n", len(tr.spans))
	names := slices.Sorted(maps.Keys(self))
	slices.SortStableFunc(names, func(a, b string) int { return cmp.Compare(self[b], self[a]) })
	for _, name := range names {
		fmt.Fprintf(w, "  %-44s %10.3f ms  x%d\n", name, float64(self[name])/1e6, count[name])
	}
}

func writeSamples(path string, ms []float64) error {
	data, err := json.Marshal(ms)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// header describes the machine and the run, for every report.
func header(e *env) [][2]string {
	return [][2]string{
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"cpu", cpuModel()},
		{"C", fmt.Sprint(e.c)},
		{"seed", fmt.Sprint(e.seed)},
		{"engine", slimnoc.EngineVersion},
		{"scratch_fs", fsType(e.dir)},
	}
}

func printHeader(w io.Writer, e *env) {
	var parts []string
	for _, kv := range header(e) {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[0], kv[1]))
	}
	fmt.Fprintln(w, "# benchmark:", strings.Join(parts, " "))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem the store files (and their fsyncs) land on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
