package detlint

import (
	"go/ast"
	"go/types"
)

// rngSource enforces the DeriveSeed discipline: every random draw must
// flow from an explicitly seeded generator handed down by the campaign
// layer (the engine's *rng.Stream, which is seeded through the math/rand
// constructors allowed here, or a *rand.Rand), and no code may read the
// wall clock. The global math/rand
// functions draw from a process-wide shared source whose state depends on
// everything else that ran, and time.Now injects the host's clock — either
// one silently breaks run-to-run byte identity.
var rngSource = &Analyzer{
	Name: "rngsource",
	Run:  runRNGSource,
}

// randConstructors are the math/rand package-level functions that build an
// explicit generator rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// clockFuncs are the time functions that observe or schedule against the
// wall clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runRNGSource(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Only function references count: *rand.Rand and time.Duration
			// in signatures are type names, not draws.
			if _, isFunc := info.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			switch pkgNameOf(info, sel.X) {
			case "math/rand", "math/rand/v2":
				if !randConstructors[sel.Sel.Name] {
					pass.reportf(sel.Pos(), "global math/rand.%s draws from shared process state; use an explicitly seeded *rand.Rand (DeriveSeed discipline)", sel.Sel.Name)
				}
			case "time":
				if clockFuncs[sel.Sel.Name] {
					pass.reportf(sel.Pos(), "time.%s reads the wall clock; simulated time must come from the engine's cycle counter", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
