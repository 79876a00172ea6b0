package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if got := ArithMean(xs); !approx(got, 7.0/3) {
		t.Errorf("amean = %v", got)
	}
	if got := GeoMean(xs); !approx(got, 2) {
		t.Errorf("geomean = %v", got)
	}
	if got := HarmMean(xs); !approx(got, 3/(1+0.5+0.25)) {
		t.Errorf("hmean = %v", got)
	}
}

func TestMeansEmptyAndInvalid(t *testing.T) {
	if ArithMean(nil) != 0 || GeoMean(nil) != 0 || HarmMean(nil) != 0 {
		t.Error("empty slices must yield 0")
	}
	// Regression (silent-zero bug): one degenerate value used to zero the
	// entire aggregate. Invalid values are now skipped instead.
	if got := GeoMean([]float64{1, 0, 2}); !approx(got, math.Sqrt2) {
		t.Errorf("geomean skipping a zero = %v, want sqrt(2)", got)
	}
	if got := HarmMean([]float64{1, -1}); !approx(got, 1) {
		t.Errorf("hmean skipping a negative = %v, want 1", got)
	}
}

// Regression: NaN and ±Inf cells are skipped like non-positive ones, and
// a slice with *only* invalid values surfaces NaN rather than a
// plausible-looking 0 or a poisoned aggregate.
func TestMeansSkipNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if got := GeoMean([]float64{4, nan, inf, -inf, 1}); !approx(got, 2) {
		t.Errorf("geomean skipping non-finite = %v, want 2", got)
	}
	if got := HarmMean([]float64{1, nan, inf, 1}); !approx(got, 1) {
		t.Errorf("hmean skipping non-finite = %v, want 1", got)
	}
	if got := GeoMean([]float64{0, -3, nan}); !math.IsNaN(got) {
		t.Errorf("geomean of all-invalid = %v, want NaN", got)
	}
	if got := HarmMean([]float64{0, inf}); !math.IsNaN(got) {
		t.Errorf("hmean of all-invalid = %v, want NaN", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("ratio")
	}
	if Ratio(1, 0) != 0 {
		t.Error("ratio by zero must yield 0")
	}
}

// Property: for positive inputs, hmean <= geomean <= amean (the classical
// mean inequality), and all three lie within [min, max].
func TestMeanInequality(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r%1000)+1) // positive, bounded
		}
		if len(xs) == 0 {
			return true
		}
		h, g, a := HarmMean(xs), GeoMean(xs), ArithMean(xs)
		const eps = 1e-9
		return h <= g+eps && g <= a+eps &&
			slices.Min(xs)-eps <= h && a <= slices.Max(xs)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every mean of a constant slice is that constant.
func TestMeanOfConstant(t *testing.T) {
	f := func(v uint16, n uint8) bool {
		x := float64(v%500) + 1
		xs := make([]float64, int(n%20)+1)
		for i := range xs {
			xs[i] = x
		}
		return approx(ArithMean(xs), x) && approx(GeoMean(xs), x) && approx(HarmMean(xs), x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
