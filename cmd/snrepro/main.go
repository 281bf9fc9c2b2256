// Command snrepro is the paper-reproduction driver: it runs any subset of
// the evaluation's figures and tables from the machine-readable manifest,
// against a content-addressed result store, and renders one Markdown and
// one CSV report per figure under docs/results/. For a figure with derived
// tables it appends those tables and the verdicts of the paper's claims to
// the Markdown report, writes the tables' CSV to <id>-tables.csv, and ends
// with one verdict table over every claim it judged. Verdicts never change
// the exit code.
//
// The store makes every campaign restartable: each simulated point is
// durably appended under its content address (the hash of its expanded
// spec plus the engine version) before it is reported, so Ctrl-C loses at
// most the in-flight points. Rerunning the same invocation completes only
// the missing points and emits reports byte-identical to an uninterrupted
// run; a fully warm rerun simulates nothing. Points shared between figures
// (the same network, pattern, load and seed) are computed once and served
// to every figure that contains them.
//
// Two subcommands run one figure family's analysis on any single network
// given by the shared spec flags (-net, -q/-p, -smart, -scheme, -cb, -rate,
// -spec, ...) and print the tables those figures' builders render for it:
// power simulates the spec and prices it (area, static and dynamic power,
// throughput per power: Figs. 1b/c, 15-17, 19), and layout compares every
// Slim NoC layout at the spec's size (wire length, buffers, Eq. 3 wiring
// bounds, and with -dist the link-distance bins: Figs. 5-6).
//
// Usage:
//
//	snrepro -list
//	snrepro -figs fig12,tab5 -store results -out docs/results
//	snrepro -all -full -jobs 8
//	snrepro -figs fig12 -short     # quick mode: CI-sized grids and cycles
//	snrepro -figs sat-nets,sat-schemes,sat-process   # saturation searches
//	snrepro power -net sn_subgr_200 -smart -tech 22nm
//	snrepro power -net sn_subgr_200 -smart -scheme cbr -cb 20
//	snrepro layout -q 5 -p 4 -dist
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/internal/stats"
	"repro/slimnoc"
	"repro/slimnoc/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the driver on the command-line arguments and returns the
// process exit code: 0 on success, 1 on failure, 2 on a usage error, 130
// when interrupted (with the store holding everything completed so far).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return analyze(args[0], args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("snrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the reproducible figures and exit")
		figsFlag = fs.String("figs", "", "comma-separated figure IDs to reproduce (e.g. fig12,tab5)")
		all      = fs.Bool("all", false, "reproduce every manifest figure")
		storeDir = fs.String("store", "results", "result-store directory (holds store.jsonl; reruns resume from it)")
		outDir   = fs.String("out", filepath.Join("docs", "results"), "directory for the per-figure Markdown and CSV reports")
		short    = fs.Bool("short", false, "quick mode: shrunken grids and cycle counts (alias of -quick)")
		quick    = fs.Bool("quick", false, "quick mode: shrunken grids and cycle counts")
		full     = fs.Bool("full", false, "paper methodology: full grids and cycle counts (default)")
		jobs     = fs.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
		memCap   = fs.Int64("mem-budget", 0, "per-point engine memory budget in bytes (0 = each figure's declared budget, -1 = no cap); oversized points fail fast instead of allocating")
		seed     = fs.Int64("seed", 1, "base seed every per-point seed derives from")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		// `snrepro -short fig12` would otherwise silently fall into -list
		// mode and exit 0 having reproduced nothing.
		fmt.Fprintf(stderr, "snrepro: unexpected argument %q — figures are selected with -figs (e.g. -figs %s)\n",
			fs.Arg(0), fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "snrepro:", err)
		return 1
	}

	opts := exp.Options{Quick: (*short || *quick) && !*full, Seed: *seed, Jobs: *jobs, MemBudget: *memCap}
	manifest := exp.Manifest(opts)

	if *list || (*figsFlag == "" && !*all) {
		fmt.Fprintln(stdout, "Reproducible figures (snrepro -figs <id,...>):")
		for _, f := range manifest {
			kind := fmt.Sprintf("%d sweep(s)", len(f.Sweeps))
			switch {
			case !f.Simulates():
				kind = "analytic"
			case len(f.Sats) > 0:
				kind = fmt.Sprintf("%d search(es)", len(f.Sats))
			}
			fmt.Fprintf(stdout, "  %-11s %-11s %s (%s)\n", f.ID, kind, f.Title, f.Section)
		}
		return 0
	}

	figures, err := selectFigures(manifest, *figsFlag, *all)
	if err != nil {
		return fail(err)
	}

	st, err := store.Open(filepath.Join(*storeDir, "store.jsonl"))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	if n := st.Recovered(); n > 0 {
		fmt.Fprintf(stderr, "snrepro: store recovered: dropped %d unreadable line(s), %d result(s) kept\n", n, st.Len())
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	write := func(name, data string) error {
		return os.WriteFile(filepath.Join(*outDir, name), []byte(data), 0o644)
	}
	var verdicts []exp.Verdict
	for _, f := range figures {
		fmt.Fprintf(stdout, "== %s: %s (%s)\n", f.ID, f.Title, f.Section)
		run, err := exp.RunFigure(ctx, f, opts, slimnoc.WithStore(st))
		if err != nil {
			if errors.Is(err, context.Canceled) {
				cached, fresh := run.CachedCount()
				fmt.Fprintf(stderr,
					"snrepro: interrupted during %s (%d cached + %d fresh points done); rerun the same command to resume from %s\n",
					f.ID, cached, fresh, st.Path())
				return 130
			}
			return fail(fmt.Errorf("%s: %w", f.ID, err))
		}
		if bad := firstPointError(run); bad != nil {
			return fail(fmt.Errorf("%s: %w", f.ID, bad))
		}
		cached, fresh := run.CachedCount()
		if !f.Simulates() {
			fmt.Fprintln(stdout, "   analytic artifact")
		} else {
			fmt.Fprintf(stdout, "   %d points (%d from store, %d simulated)\n", cached+fresh, cached, fresh)
		}
		md, tablesCSV := run.Markdown(), ""
		if f.Derive != nil {
			tables, err := f.Derive(run)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", f.ID, err))
			}
			judged := f.Judge(tables)
			verdicts = append(verdicts, judged...)
			md = strings.TrimRight(md, "\n") + "\n\n" + derivedMarkdown(tables, judged)
			for _, t := range tables {
				tablesCSV += t.CSV() + "\n"
			}
		}
		err = write(f.ID+".md", md)
		if err == nil && f.Simulates() {
			err = write(f.ID+".csv", run.CSV())
		}
		if err == nil && f.Derive != nil {
			err = write(f.ID+"-tables.csv", tablesCSV)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "   wrote %s\n", filepath.Join(*outDir, f.ID+".md"))
	}
	fmt.Fprintf(stdout, "done: %d figure(s); store %s holds %d result(s)\n", len(figures), st.Path(), st.Len())
	if len(verdicts) > 0 {
		fmt.Fprint(stdout, "\n"+exp.VerdictTable(verdicts).Markdown())
	}
	return 0
}

// analyze runs the power or layout subcommand on its arguments and prints
// its tables; the exit codes are run's.
func analyze(cmd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snrepro "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := slimnoc.NewSpecFlags().BindCommon(fs).BindNetwork(fs)
	defaults := slimnoc.DefaultSpec()
	var tables func(slimnoc.RunSpec) ([]*stats.Table, error)
	switch cmd {
	case "power":
		sf.BindRun(fs)
		tech := fs.String("tech", "45nm", "technology node: 45nm or 22nm")
		defaults.Traffic.Rate = 0.24
		tables = func(spec slimnoc.RunSpec) ([]*stats.Table, error) {
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
			defer stop()
			return exp.PowerTables(ctx, spec, *tech)
		}
	case "layout":
		dist := fs.Bool("dist", false, "also print the link-distance distributions (Fig. 6)")
		defaults.Network = slimnoc.NetworkSpec{Topology: "sn", Q: 5}
		tables = func(spec slimnoc.RunSpec) ([]*stats.Table, error) {
			return exp.LayoutTables(spec.Network, *dist)
		}
	default:
		fmt.Fprintf(stderr, "snrepro: unknown subcommand %q (have layout, power; figures are selected with -figs)\n", cmd)
		return 2
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "snrepro %s: unexpected argument %q\n", cmd, fs.Arg(0))
		return 2
	}
	spec, err := sf.Spec(defaults)
	var ts []*stats.Table
	if err == nil {
		ts, err = tables(spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "snrepro %s: %v\n", cmd, err)
		return 1
	}
	for i, t := range ts {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, t.String())
	}
	return 0
}

// derivedMarkdown renders a figure's derived tables and its claims'
// verdicts as the sections appended to its report.
func derivedMarkdown(tables []*stats.Table, verdicts []exp.Verdict) string {
	var b strings.Builder
	b.WriteString("## Derived tables\n\n")
	for _, t := range tables {
		b.WriteString(t.Markdown() + "\n")
	}
	b.WriteString("## Claims\n\n")
	if len(verdicts) == 0 {
		b.WriteString("No claims are declared on this figure's tables.\n")
	} else {
		b.WriteString(exp.VerdictTable(verdicts).Markdown())
	}
	return b.String()
}

// selectFigures resolves the -figs/-all selection against the manifest,
// preserving manifest order and rejecting unknown IDs.
func selectFigures(manifest []exp.Figure, figsFlag string, all bool) ([]exp.Figure, error) {
	if all {
		return manifest, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(figsFlag, ",") {
		if id = strings.ToLower(strings.TrimSpace(id)); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-figs selected nothing")
	}
	var out []exp.Figure
	var have []string
	for _, f := range manifest {
		have = append(have, f.ID)
		if want[f.ID] {
			out = append(out, f)
			delete(want, f.ID)
		}
	}
	if len(want) > 0 {
		var missing []string
		for id := range want {
			missing = append(missing, id)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("unknown figure(s) %s (have %s)",
			strings.Join(missing, ", "), strings.Join(have, ", "))
	}
	return out, nil
}

// firstPointError surfaces the first failed point of a completed figure.
func firstPointError(run exp.FigureRun) error {
	for _, sweep := range run.Results {
		for _, p := range sweep {
			if p.Err != nil {
				return fmt.Errorf("point %s: %w", p.Spec.Name, p.Err)
			}
		}
	}
	return nil
}
