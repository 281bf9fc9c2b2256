// Command sngen generates Slim NoC configurations: it prints Table 2
// (feasible configurations), the finite-field operation tables (Table 3),
// and, for a chosen q/p/layout (shared spec flags), the full router
// adjacency with labels, coordinates and generator sets.
//
// Usage:
//
//	sngen -table2
//	sngen -field 9
//	sngen -q 5 -p 4 -layout subgr [-adj]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gf"
	"repro/slimnoc"
)

func main() {
	sf := slimnoc.NewSpecFlags().
		BindCommon(flag.CommandLine).
		BindNetwork(flag.CommandLine)
	var (
		table2 = flag.Bool("table2", false, "print Table 2 (feasible configurations)")
		field  = flag.Int("field", 0, "print operation tables for GF(q)")
		adj    = flag.Bool("adj", false, "print the full adjacency list")
	)
	flag.Parse()

	switch {
	case *table2:
		f, err := exp.FigureByID("tab2", exp.Options{})
		if err != nil {
			fatal(err)
		}
		tables, err := f.Derive(exp.FigureRun{Figure: f})
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
	case *field != 0:
		printField(*field)
	case sf.Q != 0 || sf.Net != "" || sf.SpecPath != "":
		defaults := slimnoc.DefaultSpec()
		defaults.Network = slimnoc.NetworkSpec{Topology: "sn", Q: sf.Q, Layout: "subgr"}
		spec, err := sf.Spec(defaults)
		if err != nil {
			fatal(err)
		}
		ns, err := slimnoc.ExpandNetwork(spec.Network)
		if err != nil {
			fatal(err)
		}
		if ns.Topology != "sn" {
			fatal(fmt.Errorf("sngen builds Slim NoCs only, got topology %q", ns.Topology))
		}
		build(ns, *adj)
	default:
		flag.Usage()
	}
}

func printField(q int) {
	f, err := gf.New(q)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("GF(%d): characteristic %d, degree %d\n", q, f.Char(), f.Degree())
	xi := f.PrimitiveElement()
	fmt.Printf("primitive elements: %v (using %s)\n", names(f, f.PrimitiveElements()), f.Name(xi))
	fmt.Println("\naddition:")
	printTable(f, f.AddTable())
	fmt.Println("\nmultiplication:")
	printTable(f, f.MulTable())
	fmt.Println("\nnegation:")
	for a := 0; a < q; a++ {
		fmt.Printf("  -%s = %s\n", f.Name(a), f.Name(f.Neg(a)))
	}
}

func names(f *gf.Field, es []int) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = f.Name(e)
	}
	return out
}

func printTable(f *gf.Field, t [][]int) {
	q := f.Order()
	fmt.Print("     ")
	for b := 0; b < q; b++ {
		fmt.Printf("%3s", f.Name(b))
	}
	fmt.Println()
	for a := 0; a < q; a++ {
		fmt.Printf("  %3s", f.Name(a))
		for b := 0; b < q; b++ {
			fmt.Printf("%3s", f.Name(t[a][b]))
		}
		fmt.Println()
	}
}

func build(ns slimnoc.NetworkSpec, adj bool) {
	q, p := ns.Q, ns.Conc
	if p == 0 {
		kp, err := core.KPrimeFor(q)
		if err != nil {
			fatal(err)
		}
		p = (kp + 1) / 2
	}
	s, err := core.New(core.Params{Q: q, P: p})
	if err != nil {
		fatal(err)
	}
	net, _, err := slimnoc.BuildNetwork(ns)
	if err != nil {
		fatal(err)
	}
	f := s.Field
	fmt.Printf("Slim NoC q=%d p=%d: N=%d routers=%d k'=%d k=%d diameter=%d\n",
		q, p, s.N(), s.Nr(), s.KPrime, net.RouterRadix(), net.Diameter())
	fmt.Printf("generator sets: X=%v X'=%v\n", names(f, s.X), names(f, s.Xp))
	fmt.Printf("layout %s: die %s, avg wire length M=%.2f hops, max wire crossings W=%d\n",
		ns.Layout, dieStr(net), net.AvgWireLength(), core.MaxWireCrossing(net))
	if adj {
		for i := 0; i < s.Nr(); i++ {
			l := s.LabelOf(i)
			c := net.Coords[i]
			fmt.Printf("router %3d [%d|%s,%s] at (%d,%d):", i, l.G, f.Name(l.A), f.Name(l.B), c.X, c.Y)
			for _, j := range s.Adj[i] {
				fmt.Printf(" %d", j)
			}
			fmt.Println()
		}
	}
}

func dieStr(net interface{ GridDims() (int, int) }) string {
	x, y := net.GridDims()
	return fmt.Sprintf("%dx%d", x, y)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sngen:", err)
	os.Exit(1)
}
