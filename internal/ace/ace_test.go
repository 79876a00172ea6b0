package ace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStructureString(t *testing.T) {
	want := map[Structure]string{ROB: "ROB", IQ: "IQ", LQ: "LQ", SQ: "SQ", RF: "RF", FU: "FU"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
	if Structure(99).String() != "structure(99)" {
		t.Error("out-of-range structure name")
	}
}

func TestDefaultBitsMatchTableIII(t *testing.T) {
	b := DefaultBits()
	if b.ROBEntry != 120 || b.IQEntry != 80 || b.LQEntry != 120 || b.SQEntry != 184 {
		t.Errorf("Table III budgets wrong: %+v", b)
	}
	if b.IntReg != 64 || b.FpReg != 128 || b.IntFU != 64 || b.FpFU != 128 {
		t.Errorf("register/FU widths wrong: %+v", b)
	}
}

func TestTotalBits(t *testing.T) {
	// Hand-computed for the Table II baseline.
	b := DefaultBits()
	s := Sizes{ROB: 192, IQ: 92, LQ: 64, SQ: 64, IntRegs: 168, FpRegs: 168, IntFUs: 5, FpFUs: 3}
	want := uint64(192*120 + 92*80 + 64*120 + 64*184 + 168*64 + 168*128 + 5*64 + 3*128)
	if got := TotalBits(b, s); got != want {
		t.Errorf("TotalBits = %d, want %d", got, want)
	}
}

func TestLedgerAccumulation(t *testing.T) {
	l := NewLedger()
	l.Add(ROB, 120, 10, 4, 2)
	l.Add(ROB, 120, 5, 0, 0)
	l.Add(IQ, 80, 3, 3, 3)
	abc := l.ABC()
	if abc[ROB] != 120*15 {
		t.Errorf("ROB ABC = %d", abc[ROB])
	}
	if abc[IQ] != 80*3 {
		t.Errorf("IQ ABC = %d", abc[IQ])
	}
	if l.TotalABC() != 120*15+80*3 {
		t.Errorf("total = %d", l.TotalABC())
	}
	if l.HeadBlockedABC() != 120*4+80*3 {
		t.Errorf("head-blocked = %d", l.HeadBlockedABC())
	}
	if l.FullStallABC() != 120*2+80*3 {
		t.Errorf("full-stall = %d", l.FullStallABC())
	}
}

func TestLedgerTickAndCum(t *testing.T) {
	l := NewLedger()
	l.Advance(false, false, 1)
	l.Advance(true, false, 1)
	l.Advance(true, true, 1)
	hb, fs := l.Cum()
	if hb != 2 || fs != 1 {
		t.Errorf("cum = %d,%d want 2,1", hb, fs)
	}
}

// TestLedgerAdvanceEquivalence pins the bulk-residency contract the stall
// fast-forward depends on: Advance(hb, fs, n) must leave Cum() exactly
// where n per-cycle Advance(hb, fs, 1) calls would.
func TestLedgerAdvanceEquivalence(t *testing.T) {
	cases := []struct {
		hb, fs bool
		n      uint64
	}{
		{false, false, 1000}, {true, false, 7}, {true, true, 123}, {true, false, 0},
	}
	bulk, tick := NewLedger(), NewLedger()
	for _, c := range cases {
		bulk.Advance(c.hb, c.fs, c.n)
		for i := uint64(0); i < c.n; i++ {
			tick.Advance(c.hb, c.fs, 1)
		}
		bhb, bfs := bulk.Cum()
		thb, tfs := tick.Cum()
		if bhb != thb || bfs != tfs {
			t.Fatalf("after %+v: bulk cum = %d,%d ticked cum = %d,%d", c, bhb, bfs, thb, tfs)
		}
	}
}

func TestAVF(t *testing.T) {
	if got := AVF(1000, 100, 10); got != 1.0 {
		t.Errorf("fully-vulnerable AVF = %v", got)
	}
	if got := AVF(500, 100, 10); got != 0.5 {
		t.Errorf("AVF = %v", got)
	}
	if AVF(1, 0, 10) != 0 || AVF(1, 10, 0) != 0 {
		t.Error("degenerate AVF must be 0")
	}
}

// TestMTTFRelPRECase encodes the paper's subtle PRE result: if a scheme
// improves ABC by the same factor it improves runtime, MTTF is unchanged.
func TestMTTFRelPRECase(t *testing.T) {
	// Baseline: ABC 1000 over 1000 cycles. PRE-like: ABC 720 over 720.
	if got := MTTFRel(1000, 1000, 720, 720); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("PRE-case MTTF = %v, want 1.0", got)
	}
	// RAR-like: ABC x0.186, runtime x0.75 => MTTF = (1/0.186)*0.75 ≈ 4.03.
	got := MTTFRel(1000, 1000, 186, 750)
	want := (1000.0 / 186.0) * 0.75
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RAR-case MTTF = %v, want %v", got, want)
	}
	if MTTFRel(1, 0, 1, 1) != 0 || MTTFRel(1, 1, 0, 1) != 0 {
		t.Error("degenerate MTTF must be 0")
	}
}

// Property: the attribution buckets never exceed the total, provided each
// window's overlaps don't exceed its length (the core guarantees this).
func TestLedgerBucketBound(t *testing.T) {
	f := func(windows []struct {
		Bits uint16
		Cyc  uint16
		HB   uint16
		FS   uint16
	}) bool {
		l := NewLedger()
		for _, w := range windows {
			cyc := uint64(w.Cyc)
			hb := uint64(w.HB) % (cyc + 1)
			fs := uint64(w.FS) % (hb + 1) // fullStall ⊆ headBlocked
			l.Add(ROB, uint64(w.Bits), cyc, hb, fs)
		}
		return l.FullStallABC() <= l.HeadBlockedABC() &&
			l.HeadBlockedABC() <= l.TotalABC()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MTTFRel is multiplicative in ABC improvement and runtime ratio.
func TestMTTFRelScaling(t *testing.T) {
	f := func(abc uint32, cyc uint32) bool {
		a := uint64(abc%10000) + 1
		c := uint64(cyc%10000) + 1
		// Halving ABC at equal runtime doubles MTTF.
		m := MTTFRel(2*a, c, a, c)
		return math.Abs(m-2.0) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
