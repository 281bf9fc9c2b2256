package slimnoc

// Regression pins for listing order: every name list the facade shows
// (flag help, unknown-name errors, sweep expansion) is backed by a map, so
// an accidental switch to raw map iteration would make its order vary per
// process. The detlint maporder analyzer guards the implementation; this
// test pins the observable contract: sorted and duplicate-free.

import (
	"sort"
	"testing"
)

func TestListingsSortedAndStable(t *testing.T) {
	listings := []struct {
		name string
		list []string
	}{
		{"topologies", topologies.names},
		{"routings", routings.names},
		{"traffics", traffics.names},
		{"processes", processes.names},
		{"schemes", schemes.names},
		{"layouts", layouts.names},
		{"presets", sortedKeys(presetTable)},
	}
	for _, l := range listings {
		if len(l.list) == 0 {
			t.Errorf("%s is empty", l.name)
			continue
		}
		if !sort.StringsAreSorted(l.list) {
			t.Errorf("%s is not sorted: %q", l.name, l.list)
		}
		for i := 1; i < len(l.list); i++ {
			if l.list[i] == l.list[i-1] {
				t.Errorf("%s contains duplicate %q", l.name, l.list[i])
			}
		}
	}
}
