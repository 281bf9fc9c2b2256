// Command detlint runs the determinism static-analysis suite
// (internal/detlint) over the repository and prints findings in the go-vet
// file:line:col style, exiting nonzero when any contract is violated.
//
// Usage, from the module root:
//
//	go run ./internal/tools/detlint [patterns...]
//
// Patterns are go-list package patterns; the default set covers the
// determinism-critical tree (./internal/... ./slimnoc/... ./cmd/...).
// The suite is dependency-free by design: packages load through `go list
// -export` plus the standard gc importer, so no vettool or module
// downloads are needed (golang.org/x/tools is deliberately not vendored).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/detlint"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./slimnoc/...", "./cmd/..."}
	}

	pkgs, err := detlint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags, err := detlint.Run(detlint.DefaultConfig(), pkgs, detlint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Printf("detlint: ok — %d package(s) clean\n", len(pkgs))
}
