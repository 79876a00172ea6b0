package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"time"

	"rarsim/internal/metrics"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs, interpolating
// linearly between the two nearest ranks of the sorted samples. It
// returns 0 for no samples and leaves xs unchanged.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// samplesBeyond returns how many of n samples lie strictly above the
// interpolated p-quantile's lower rank — the count a tail percentile
// rests on. A tail percentile is reported only when at least
// minBeyond samples lie beyond it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// minBeyond is the least number of samples that must lie beyond a
// reported tail percentile.
const minBeyond = 10

// samples collects repeated measurements per cell or chip. A workload's
// metric is built from each one's median, so a noisy repetition of one
// cell does not move it: sumOfMedians is the median round, assembled
// cell by cell.
type samples map[string][]float64

func (s samples) add(id string, v float64) { s[id] = append(s[id], v) }

func (s samples) sumOfMedians(ids []string) float64 {
	var sum float64
	for _, m := range s.medians(ids) {
		sum += m
	}
	return sum
}

// medians returns each id's median, in the order of ids.
func (s samples) medians(ids []string) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = median(s[id])
	}
	return out
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// nsPer returns d in nanoseconds per item, 0 for no items.
func nsPer(d time.Duration, items uint64) float64 {
	return metrics.Ratio(float64(d.Nanoseconds()), float64(items))
}

// digest fingerprints v by its JSON encoding: every exported field, in
// declaration order, so two values share a digest exactly when they are
// equal field for field.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Stats are plain integers and strings; failing to encode them
		// is a bug, not an input error.
		panic("perfbench: digest: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
