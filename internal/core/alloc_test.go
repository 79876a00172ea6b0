package core

import (
	"testing"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// TestZeroAllocSteadyState pins the cycle loop's allocation freedom:
// after a warmup long enough to size every pool, queue and scratch
// buffer, a measured simulation window must perform zero heap
// allocations per cycle — in fact zero allocations total. It catches a
// boxed value, a variadic ...any call, an append that outgrows its
// capacity, sort.Slice or an escape-analysis regression on any path a
// cell takes. A structure that doubles without bound allocates in ever
// rarer bursts, like the high-water growth the probe allows, and can
// pass.
//
// Each scheme has paths only it takes (FLUSH's flush, TR's redirect and
// filter, PRE's resume, RAR's PRDQ drain), so every scheme runs: OoO
// and each runahead variant, on libquantum (a memory-heavy stream with
// deep MSHR and prefetch activity), exchange2 (control-flow stress and
// mispredict squash), mcf (pointer chasing, whose long misses overflow
// the completion wheel) and soplex. The subtests stay sequential:
// AllocsPerRun counts the allocations of the whole process.
func TestZeroAllocSteadyState(t *testing.T) {
	schemes := append([]config.Scheme{config.OoO}, config.RunaheadVariants()...)
	for _, scheme := range schemes {
		for _, bench := range []string{"libquantum", "exchange2", "mcf", "soplex"} {
			t.Run(scheme.Name+"/"+bench, func(t *testing.T) {
				testZeroAlloc(t, scheme, bench)
			})
		}
	}
}

func testZeroAlloc(t *testing.T, scheme config.Scheme, bench string) {
	b, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	c := New(config.Baseline(), scheme, b, 42)
	// Steady state: one long window sizes the uop pool, the stream
	// buffer, the front-end queue and every scratch slice to their
	// high-water marks.
	if _, err := c.Run(100_000); err != nil {
		t.Fatal(err)
	}
	// High-water growth decays rather than stopping at a sharp boundary
	// (a rare deep-runahead episode can still grow a waiter list once).
	// Each probe is itself more warmup, so retry a few times: a genuine
	// per-cycle allocation never converges and still fails every probe.
	var allocs float64
	for attempt := 0; attempt < 6; attempt++ {
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := c.Run(10_000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Errorf("%s/%s: %.1f allocs per 10k-instruction window in steady state, want 0",
			scheme.Name, bench, allocs)
	}
}

// BenchmarkSteadyStateWindow measures a warmed 10k-instruction window —
// the companion benchmark for the zero-alloc assertion above (run with
// -benchmem to see the alloc rate directly).
func BenchmarkSteadyStateWindow(b *testing.B) {
	bench, err := trace.ByName("libquantum")
	if err != nil {
		b.Fatal(err)
	}
	c := New(config.Baseline(), config.RAR, bench, 42)
	if _, err := c.Run(60_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
}
