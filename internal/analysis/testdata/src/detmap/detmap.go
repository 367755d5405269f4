// Package detmap is a fixture for the detmap analyzer: each bad function
// feeds ordered output from a map iteration; each good function uses the
// collect-sort-iterate pattern or only performs commutative writes.
package detmap

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// BadPrint writes rows in map order.
func BadPrint(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// BadAppend accumulates values in map order and never sorts them.
func BadAppend(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// BadAccumulate folds floats in map order; float addition is not associative.
func BadAccumulate(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// BadClosure mutates an outer accumulator through a helper closure.
func BadClosure(m map[string]float64) float64 {
	var total float64
	add := func(v float64) {
		total += v
	}
	for _, v := range m {
		add(v)
	}
	return total
}

// BadReturn returns a value chosen by iteration order.
func BadReturn(m map[string]int) error {
	for k := range m {
		return fmt.Errorf("unexpected key %q", k)
	}
	return nil
}

// BadCompact collects keys and only compacts them: Compact drops adjacent
// duplicates and leaves the keys in map order.
func BadCompact(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return slices.Compact(keys)
}

// GoodSorted collects keys, sorts them, then iterates the slice.
func GoodSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// GoodSortSlice sorts struct entries collected from the map.
func GoodSortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// GoodCommutative only writes through map indices and deletes, which are
// order-insensitive.
func GoodCommutative(m map[string]int, other map[string]bool) map[string]int {
	inv := make(map[string]int, len(m))
	for k, v := range m {
		inv[k] = v * 2
		delete(other, k)
	}
	return inv
}

// GoodLocal keeps every written variable inside the loop.
func GoodLocal(m map[string]int) {
	for _, v := range m {
		x := v * 2
		_ = x
	}
}
