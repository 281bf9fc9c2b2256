// Package maporder is the golden fixture for the maporder analyzer.
package maporder

import (
	"slices"
	"sort"
)

func plainRange(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over map"
		total += v
	}
	return total
}

func keyOnlyRangeUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want "range over map"
		keys = append(keys, k)
	}
	return keys
}

func sortedKeysIdiom(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysSlicesIdiom(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sortedWrongSlice(m map[string]int) []string {
	var keys, other []string
	for k := range m { // want "range over map"
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}

func sortBeforeNotAfter(m map[string]int) []string {
	var keys []string
	sort.Strings(keys)
	for k := range m { // want "range over map"
		keys = append(keys, k)
	}
	return keys
}

func waivedInline(m map[string]int) int {
	n := 0
	for range m { //detlint:ordered commutative count; order cannot reach the result
		n++
	}
	return n
}

func waivedAbove(m map[string]int) int {
	n := 0
	//detlint:ordered commutative count; order cannot reach the result
	for range m {
		n++
	}
	return n
}

// A reason-less directive does not waive: every exception must be
// explained in place.
func waiverWithoutReason(m map[string]int) int {
	n := 0
	//detlint:ordered
	for range m { // want "range over map"
		n++
	}
	return n
}

func genericAllowWaiver(m map[string]int) int {
	n := 0
	//detlint:allow maporder commutative count; order cannot reach the result
	for range m {
		n++
	}
	return n
}

func wrongAnalyzerWaiver(m map[string]int) int {
	n := 0
	//detlint:allow floatkey this waiver names another analyzer
	for range m { // want "range over map"
		n++
	}
	return n
}

func rangeOverSlice(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}

type bag map[string]int

func namedMapType(b bag) int {
	n := 0
	for range b { // want "range over map"
		n++
	}
	return n
}
