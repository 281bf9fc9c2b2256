package slimnoc

import (
	"fmt"
	"strings"
)

// presetTable holds the static Table 4 configurations. Slim NoC presets of
// the form sn_<layout>_<N> are resolved dynamically by resolvePreset.
var presetTable = map[string]NetworkSpec{
	// N in {192, 200}.
	"cm3":   {Topology: "mesh", X: 8, Y: 8, Conc: 3},
	"cm4":   {Topology: "mesh", X: 10, Y: 5, Conc: 4},
	"t2d3":  {Topology: "torus", X: 8, Y: 8, Conc: 3},
	"t2d4":  {Topology: "torus", X: 10, Y: 5, Conc: 4},
	"fbf3":  {Topology: "flatfly", X: 8, Y: 8, Conc: 3},
	"fbf4":  {Topology: "flatfly", X: 10, Y: 5, Conc: 4},
	"pfbf3": {Topology: "pflatfly", PartsX: 2, PartsY: 2, X: 4, Y: 4, Conc: 3},
	"pfbf4": {Topology: "pflatfly", PartsX: 2, PartsY: 1, X: 5, Y: 5, Conc: 4},
	// N = 1296.
	"cm9":   {Topology: "mesh", X: 12, Y: 12, Conc: 9},
	"cm8":   {Topology: "mesh", X: 18, Y: 9, Conc: 8},
	"t2d9":  {Topology: "torus", X: 12, Y: 12, Conc: 9},
	"t2d8":  {Topology: "torus", X: 18, Y: 9, Conc: 8},
	"fbf9":  {Topology: "flatfly", X: 12, Y: 12, Conc: 9},
	"fbf8":  {Topology: "flatfly", X: 18, Y: 9, Conc: 8},
	"pfbf9": {Topology: "pflatfly", PartsX: 2, PartsY: 2, X: 6, Y: 6, Conc: 9},
	"pfbf8": {Topology: "pflatfly", PartsX: 2, PartsY: 1, X: 9, Y: 9, Conc: 8},
	// N = 54 small-scale set (§5.6).
	"t2d54":  {Topology: "torus", X: 6, Y: 3, Conc: 3},
	"fbf54":  {Topology: "flatfly", X: 6, Y: 3, Conc: 3},
	"pfbf54": {Topology: "pflatfly", PartsX: 2, PartsY: 1, X: 3, Y: 3, Conc: 3},
	// Scale-out baselines for the scale-* family: N = 10080 siblings of the
	// dynamic sn_subgr_10000 (q=25, p=8), and N = 100352 siblings of
	// sn_subgr_99856 (q=79) for the hundred-thousand-endpoint regime.
	"cm10k":   {Topology: "mesh", X: 35, Y: 36, Conc: 8},
	"t2d10k":  {Topology: "torus", X: 35, Y: 36, Conc: 8},
	"fbf10k":  {Topology: "flatfly", X: 35, Y: 36, Conc: 8},
	"cm100k":  {Topology: "mesh", X: 112, Y: 112, Conc: 8},
	"t2d100k": {Topology: "torus", X: 112, Y: 112, Conc: 8},
	"fbf100k": {Topology: "flatfly", X: 112, Y: 112, Conc: 8},
}

// resolvePreset expands a preset name (Table 4 shorthand like cm3 or fbf9,
// or the dynamic sn_<layout>_<N> form) into a full NetworkSpec.
func resolvePreset(name string) (NetworkSpec, error) {
	key := strings.ToLower(name)
	if ns, ok := presetTable[key]; ok {
		return ns, nil
	}
	// Slim NoCs: sn_<layout>_<N>.
	var n int
	for _, l := range layouts.names {
		if _, err := fmt.Sscanf(key, "sn_"+l+"_%d", &n); err == nil {
			return NetworkSpec{Topology: "sn", Nodes: n, Layout: l}, nil
		}
	}
	return NetworkSpec{}, fmt.Errorf("slimnoc: unknown network preset %q", name)
}
