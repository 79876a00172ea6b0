// Package metrics aggregates per-benchmark results into suite-level
// numbers following the paper's methodology (§V, citing John 2006):
// harmonic mean for IPC ratios, geometric mean for MTTF, and arithmetic
// mean for ABC and MLP.
package metrics

import "math"

// ArithMean returns the arithmetic mean of xs (0 for an empty slice).
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// valid reports whether x may enter a harmonic or geometric mean: both
// are defined only for positive finite values. (x > 0 also rejects NaN.)
func valid(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// HarmMean returns the harmonic mean of the positive finite values in
// xs. Non-positive and non-finite values are skipped — one degenerate
// cell must not silently zero the whole suite aggregate. A non-empty
// slice with no valid value returns NaN so the corruption stays visible;
// an empty slice returns 0.
func HarmMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	n := 0
	for _, x := range xs {
		if !valid(x) {
			continue
		}
		s += 1 / x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(n) / s
}

// GeoMean returns the geometric mean of the positive finite values in
// xs, with the same skip-invalid policy as HarmMean.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	n := 0
	for _, x := range xs {
		if !valid(x) {
			continue
		}
		s += math.Log(x)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(s / float64(n))
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
