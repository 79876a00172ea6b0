package core

import (
	"reflect"
	"testing"
)

// fillNumeric sets every numeric leaf of v (recursing through structs and
// arrays) to x.
func fillNumeric(v reflect.Value, x uint64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNumeric(v.Field(i), x)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillNumeric(v.Index(i), x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(x)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(x))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(x))
	}
}

// checkNumeric walks v and calls f with ("path.to.field", value) for every
// numeric leaf.
func checkNumeric(t *testing.T, v reflect.Value, path string, f func(path string, got uint64)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			p := name
			if path != "" {
				p = path + "." + name
			}
			checkNumeric(t, v.Field(i), p, f)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			checkNumeric(t, v.Index(i), path, f)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f(path, v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f(path, uint64(v.Int()))
	case reflect.Float32, reflect.Float64:
		f(path, uint64(v.Float()))
	}
}

// TestStatsSubCoversAllFields pins the warmup-exclusion contract: Stats.sub
// must subtract every numeric field — including those nested in mem.Stats
// and the ABC array — except the fields explicitly exempted in
// wholeRunStatsFields. A counter added to Stats without a matching line in
// sub shows up here as a 100 that should have been 99, instead of silently
// leaking warmup into every measured result.
func TestStatsSubCoversAllFields(t *testing.T) {
	var s, w Stats
	fillNumeric(reflect.ValueOf(&s).Elem(), 100)
	fillNumeric(reflect.ValueOf(&w).Elem(), 1)
	for _, tc := range []struct {
		op   string
		got  Stats
		want uint64
	}{
		{"sub", s.sub(w), 99},
	} {
		seen := map[string]bool{}
		checkNumeric(t, reflect.ValueOf(tc.got), "", func(path string, got uint64) {
			leaf := path
			if i := lastDot(path); i >= 0 {
				leaf = path[i+1:]
			}
			if wholeRunStatsFields[leaf] {
				seen[leaf] = true
				if got != 100 {
					t.Errorf("%s: allowlisted as whole-run but %s changed it: got %d, want 100", path, tc.op, got)
				}
				return
			}
			if got != tc.want {
				t.Errorf("%s: not covered by Stats.%s (got %d, want %d) — subtract it in sub or add it to wholeRunStatsFields",
					path, tc.op, got, tc.want)
			}
		})
		for name := range wholeRunStatsFields {
			if !seen[name] {
				t.Errorf("wholeRunStatsFields lists %q but Stats has no such numeric field", name)
			}
		}
	}
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}
