// Seeded violations for the mapiter analyzer: map iteration order must
// never leak into results.
package mapiter

import "sort"

func appendNoSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "append to out inside map iteration"
	}
	return out
}

func appendThenSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func appendThenSortSlice(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sendOnChannel(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want "send on channel inside map iteration"
	}
}

func floatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "floating-point accumulation into sum inside map iteration"
	}
	return sum
}

func intAccumOK(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

func stringConcat(m map[string]string) string {
	var s string
	for _, v := range m {
		s += v // want "string concatenation into s inside map iteration"
	}
	return s
}

func indexWriteOK(m map[string]int) map[string]int {
	out := make(map[string]int)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// The worker-local merge pattern: additive integer accumulation into a
// key-indexed map entry commutes, so iteration order cannot leak.
func indexAccumOK(m map[string]int) map[string]int {
	total := make(map[string]int)
	for k, v := range m {
		total[k] += v
	}
	return total
}

func localAppendOK(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

func sliceRangeOK(xs []string, out []string) []string {
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

type report struct{ items []string }

// A report field filled in map order leaks that order to every reader of
// the report.
func fieldAppendNoSort(r *report, m map[string]int) {
	for k := range m {
		r.items = append(r.items, k) // want "append to field items inside map iteration"
	}
}

func fieldAppendThenSort(r *report, m map[string]int) {
	for k := range m {
		r.items = append(r.items, k)
	}
	sort.Strings(r.items)
}

// Appending to a key-indexed map entry is order-independent per key.
func indexedAppendOK(m map[string][]int) map[string][]int {
	out := make(map[string][]int)
	for k, vs := range m {
		out[k] = append(out[k], vs...)
	}
	return out
}
