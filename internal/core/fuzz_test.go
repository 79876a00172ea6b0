package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rarsim/internal/config"
	"rarsim/internal/trace"
)

// TestRandomProgramsRun drives arbitrary valid programs through the two
// extreme schemes with the invariant auditor armed: whatever the
// instruction mix, the pipeline must commit exactly the requested count
// without deadlocking or corrupting its bookkeeping. The programs come
// from a fixed seed, so a failure reproduces.
func TestRandomProgramsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	f := func(raw []byte, seed uint64) bool {
		b := trace.RandomBenchmark(raw)
		for _, s := range []config.Scheme{config.OoO, config.RAR} {
			c := New(config.Baseline(), s, b, seed)
			c.EnableAudit(256)
			st, err := c.Run(4_000)
			if err != nil || st.Committed != 4_000 {
				t.Logf("scheme %s: err=%v committed=%d raw=%v seed=%d", s.Name, err, st.Committed, raw, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}

// TestRandomProgramsFFEquivalence fuzzes the stall fast-forward's
// correctness contract: for arbitrary valid programs, random seeds and
// every scheme family, a run with the quiescent-cycle skip enabled must be
// Stats-identical (reflect.DeepEqual, cycle count included) to the
// cycle-by-cycle run. This is the adversarial complement to the curated
// cells in TestFFEquivalence — random dependence structures, branch mixes
// and stream patterns hunt for event sources nextEventCycle might miss.
// The programs come from a fixed seed, so a failure reproduces.
func TestRandomProgramsFFEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	schemes := []config.Scheme{config.OoO, config.FLUSH, config.TR, config.PREEarly, config.RAR}
	f := func(raw []byte, seed uint64) bool {
		b := trace.RandomBenchmark(raw)
		s := schemes[int(seed%uint64(len(schemes)))]
		run := func(ff bool) ([2]Stats, error) {
			c := New(config.Baseline(), s, b, seed)
			c.SetStallFastForward(ff)
			return runWhole(c, 1_000, 4_000)
		}
		on, errOn := run(true)
		off, errOff := run(false)
		if errOn != nil || errOff != nil {
			t.Logf("scheme %s: errOn=%v errOff=%v raw=%v seed=%d", s.Name, errOn, errOff, raw, seed)
			return false
		}
		if !reflect.DeepEqual(on, off) {
			t.Logf("scheme %s seed=%d raw=%v (measured window, whole run):\n on: %+v\noff: %+v",
				s.Name, seed, raw, on, off)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}
