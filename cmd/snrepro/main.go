// Command snrepro is the paper-reproduction driver: it runs any subset of
// the evaluation's figures and tables from the machine-readable manifest,
// against a content-addressed result store, and renders one Markdown and
// one CSV report per figure under docs/results/.
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
// Usage:
//
//	snrepro -list
//	snrepro -figs fig12,tab5 -store results -out docs/results
//	snrepro -all -full -jobs 8
//	snrepro -figs fig12 -short     # quick mode: CI-sized grids and cycles
//	snrepro -figs sat-nets,sat-schemes,sat-process   # saturation searches
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/exp"
	"repro/slimnoc"
	"repro/slimnoc/store"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the reproducible figures and exit")
		figsFlag = flag.String("figs", "", "comma-separated figure IDs to reproduce (e.g. fig12,tab5)")
		all      = flag.Bool("all", false, "reproduce every manifest figure")
		storeDir = flag.String("store", "results", "result-store directory (holds store.jsonl; reruns resume from it)")
		outDir   = flag.String("out", filepath.Join("docs", "results"), "directory for the per-figure Markdown and CSV reports")
		short    = flag.Bool("short", false, "quick mode: shrunken grids and cycle counts (alias of -quick)")
		quick    = flag.Bool("quick", false, "quick mode: shrunken grids and cycle counts")
		full     = flag.Bool("full", false, "paper methodology: full grids and cycle counts (default)")
		jobs     = flag.Int("jobs", 0, "parallel simulation workers (0 = NumCPU, 1 = serial)")
		ejobs    = flag.Int("engine-jobs", 0, "parallel engine domains per point (0/1 = serial, -1 = NumCPU); results are byte-identical at every value")
		memCap   = flag.Int64("mem-budget", 0, "per-point engine memory budget in bytes (0 = each figure's declared budget, -1 = no cap); oversized points fail fast instead of allocating")
		seed     = flag.Int64("seed", 1, "base seed every per-point seed derives from")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// `snrepro fig12` would otherwise silently fall into -list mode and
		// exit 0 having reproduced nothing.
		fmt.Fprintf(os.Stderr, "snrepro: unexpected argument %q — figures are selected with -figs (e.g. -figs %s)\n",
			flag.Arg(0), flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(*list, *figsFlag, *all, *storeDir, *outDir,
		(*short || *quick) && !*full, *jobs, *ejobs, *memCap, *seed))
}

// run executes the driver and returns the process exit code: 0 on success,
// 1 on failure, 130 when interrupted (with the store holding everything
// completed so far).
func run(list bool, figsFlag string, all bool, storeDir, outDir string, quick bool, jobs, engineJobs int, memBudget, seed int64) int {
	opts := exp.Options{Quick: quick, Seed: seed, Jobs: jobs, EngineJobs: engineJobs, MemBudget: memBudget}
	manifest := exp.Manifest(opts)

	if list || (figsFlag == "" && !all) {
		fmt.Println("Reproducible figures (snrepro -figs <id,...>):")
		for _, f := range manifest {
			kind := fmt.Sprintf("%d sweep(s)", len(f.Sweeps))
			switch {
			case !f.Simulates():
				kind = "analytic"
			case len(f.Sats) > 0:
				kind = fmt.Sprintf("%d search(es)", len(f.Sats))
			}
			fmt.Printf("  %-11s %-11s %s (%s)\n", f.ID, kind, f.Title, f.Section)
		}
		return 0
	}

	figures, err := selectFigures(manifest, figsFlag, all)
	if err != nil {
		return fail(err)
	}

	st, err := store.Open(filepath.Join(storeDir, "store.jsonl"))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	if n := st.Recovered(); n > 0 {
		fmt.Fprintf(os.Stderr, "snrepro: store recovered: dropped %d unreadable line(s), %d result(s) kept\n", n, st.Len())
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, f := range figures {
		fmt.Printf("== %s: %s (%s)\n", f.ID, f.Title, f.Section)
		run, err := exp.RunFigure(ctx, f, opts, slimnoc.WithStore(st))
		if err != nil {
			if errors.Is(err, context.Canceled) {
				cached, fresh := run.CachedCount()
				fmt.Fprintf(os.Stderr,
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
			fmt.Printf("   analytic artifact — see `snexp -exp %s` for the derived tables\n", f.ID)
		} else {
			fmt.Printf("   %d points (%d from store, %d simulated)\n", cached+fresh, cached, fresh)
		}
		mdPath := filepath.Join(outDir, f.ID+".md")
		if err := os.WriteFile(mdPath, []byte(run.Markdown()), 0o644); err != nil {
			return fail(err)
		}
		if f.Simulates() {
			csvPath := filepath.Join(outDir, f.ID+".csv")
			if err := os.WriteFile(csvPath, []byte(run.CSV()), 0o644); err != nil {
				return fail(err)
			}
		}
		fmt.Printf("   wrote %s\n", mdPath)
	}
	fmt.Printf("done: %d figure(s); store %s holds %d result(s)\n", len(figures), st.Path(), st.Len())
	return 0
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

// fail reports an error and returns the generic failure exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "snrepro:", err)
	return 1
}
