// Package sim is a determinism-corpus stand-in for the cache-feeding
// simulator packages: both the call checks and the map-iteration check
// apply here.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Wall-clock reads are flagged module-wide.
func wallClock() time.Duration {
	start := time.Now() //lintwant determinism
	//lintwant determinism
	return time.Since(start)
}

// A wall clock held as a value is read wherever it is later called:
// flagged where it is taken.
var clock = time.Now //lintwant determinism

// A well-formed allow directive suppresses the finding in place.
func hostTiming() time.Duration {
	t0 := time.Now()      //rarlint:allow determinism host-side timing for the corpus
	return time.Since(t0) //rarlint:allow determinism host-side timing for the corpus
}

// The package-level math/rand source is process-wide: flagged.
func globalRand() int {
	return rand.Intn(6) //lintwant determinism
}

// An explicitly seeded local generator is the demanded replacement:
// the rand.New / rand.NewSource constructors are deterministic.
func localRand(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Appending map keys in iteration order into a result that is never
// normalised leaks the order: flagged.
func accumulate(m map[string]int) []string {
	var out []string
	for k := range m { //lintwant determinism
		out = append(out, k)
	}
	return out
}

// Scalar accumulation is order-sensitive too (float addition is not
// associative; the analyzer does not type-split): flagged.
func total(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { //lintwant determinism
		sum += v
	}
	return sum
}

// Printing inside a map range leaks order straight into output: flagged.
func render(m map[string]int) {
	for k, v := range m { //lintwant determinism
		fmt.Println(k, v)
	}
}

// Writer sinks count as output even without fmt: flagged.
func build(m map[string]int) string {
	var b strings.Builder
	for k := range m { //lintwant determinism
		b.WriteString(k)
	}
	return b.String()
}

// The canonical fix — collect, sort, then iterate — is recognised: the
// collection loop's only escape is a self-append later sorted.
func sortedRender(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return out
}

// Writes into another map are exempt: map storage is unordered anyway.
func invert(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// Loop-local state never escapes: clean.
func localOnly(m map[string]int) int {
	last := 0
	for _, v := range m {
		x := v * 2
		if x == 4 {
			return x
		}
	}
	return last
}
