package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := NewMSHRs(4)
	m.Allocate(0x1000, 10, 300)
	fill, merged := m.Lookup(0x1010, 20) // same line
	if !merged || fill != 300 {
		t.Errorf("merge = %d,%v", fill, merged)
	}
	if _, merged := m.Lookup(0x2000, 20); merged {
		t.Error("different line must not merge")
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHRs(2)
	for _, addr := range []uint64{0x1000, 0x2000} {
		if !m.Admit(0) {
			t.Fatalf("miss to %#x turned away from a file with a free register", addr)
		}
		m.Allocate(addr, 0, 100)
	}
	if m.Admit(10) {
		t.Error("a third miss must stall in a 2-entry file")
	}
	if m.FullStalls() != 1 {
		t.Errorf("full stalls = %d", m.FullStalls())
	}
	if m.Outstanding(10) != 2 {
		t.Errorf("outstanding = %d", m.Outstanding(10))
	}
	// Once the fills complete, the next miss is admitted without a stall.
	if !m.Admit(100) || m.FullStalls() != 1 {
		t.Errorf("after the fills: full stalls %d, want 1 and an admission", m.FullStalls())
	}
}

func TestMSHRReap(t *testing.T) {
	m := NewMSHRs(2)
	m.Allocate(0x1000, 0, 50)
	m.Allocate(0x2000, 0, 60)
	// After the fills complete, the registers free up.
	if !m.Admit(100) {
		t.Error("completed fills must free their registers")
	}
	m.Allocate(0x3000, 100, 300)
	if _, merged := m.Lookup(0x1000, 100); merged {
		t.Error("completed fill must not merge")
	}
	if m.Outstanding(100) != 1 {
		t.Errorf("outstanding after reap = %d", m.Outstanding(100))
	}
}

// naiveMSHRs is the reference the watermarked file must reproduce: it
// reaps the whole file on every access and scans it for every query.
type naiveMSHRs struct {
	entries []mshrEntry
	full    uint64
}

func (m *naiveMSHRs) reap(now uint64) {
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].fillAt <= now {
			m.entries[i].valid = false
		}
	}
}

func (m *naiveMSHRs) lookup(addr, now uint64) (uint64, bool) {
	m.reap(now)
	for _, e := range m.entries {
		if e.valid && e.line == LineAddr(addr) {
			return e.fillAt, true
		}
	}
	return 0, false
}

func (m *naiveMSHRs) admit(now uint64) bool {
	if m.outstanding(now) < len(m.entries) {
		return true
	}
	m.full++
	return false
}

func (m *naiveMSHRs) allocate(addr, now, fillAt uint64) {
	m.reap(now)
	for i := range m.entries {
		if !m.entries[i].valid {
			m.entries[i] = mshrEntry{line: LineAddr(addr), fillAt: fillAt, valid: true}
			return
		}
	}
	panic("naive allocate on a full file")
}

func (m *naiveMSHRs) outstanding(now uint64) int {
	n := 0
	for _, e := range m.entries {
		if e.valid && e.fillAt > now {
			n++
		}
	}
	return n
}

func (m *naiveMSHRs) nextFillAt(now uint64) (fillAt uint64, ok bool) {
	for _, e := range m.entries {
		if e.valid && e.fillAt > now && (!ok || e.fillAt < fillAt) {
			fillAt, ok = e.fillAt, true
		}
	}
	return fillAt, ok
}

// TestMSHRWatermarkMatchesNaive drives the watermarked file and the naive
// reference with the same random Lookup/Admit+Allocate/Outstanding/NextFillAt
// sequences — a clock that mostly advances but sometimes steps back, as
// the core's same-cycle store drain does, fills due before, at and long
// after the access, and few enough lines that merges and full stalls are
// common — and compares every return value and counter after every call.
func TestMSHRWatermarkMatchesNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 2, 4, 20} {
		m := NewMSHRs(size)
		ref := &naiveMSHRs{entries: make([]mshrEntry, size)}
		now := uint64(1000)
		for step := 0; step < 50_000; step++ {
			switch r := rnd.Intn(10); {
			case r < 6:
				now += uint64(rnd.Intn(8))
			case r == 6:
				now -= uint64(rnd.Intn(3))
			}
			addr := uint64(rnd.Intn(3*size)) << lineShift
			query := now + uint64(rnd.Intn(5)) - 2
			var got, want string
			switch op := rnd.Intn(4); op {
			case 0:
				f, ok := m.Lookup(addr, now)
				rf, rok := ref.lookup(addr, now)
				got, want = fmt.Sprint("Lookup ", f, ok), fmt.Sprint("Lookup ", rf, rok)
			case 1:
				// Admit, then Allocate when admitted, as Hierarchy.Access does.
				fill := now + uint64(rnd.Intn(400)) - 5
				ok, rok := m.Admit(now), ref.admit(now)
				if ok && rok {
					m.Allocate(addr, now, fill)
					ref.allocate(addr, now, fill)
				}
				got, want = fmt.Sprint("Admit ", ok), fmt.Sprint("Admit ", rok)
			case 2:
				got = fmt.Sprint("Outstanding ", m.Outstanding(query))
				want = fmt.Sprint("Outstanding ", ref.outstanding(query))
			case 3:
				f, ok := m.NextFillAt(query)
				rf, rok := ref.nextFillAt(query)
				got, want = fmt.Sprint("NextFillAt ", f, ok), fmt.Sprint("NextFillAt ", rf, rok)
			}
			got += fmt.Sprint(" stalls ", m.FullStalls())
			want += fmt.Sprint(" stalls ", ref.full)
			if got != want {
				t.Fatalf("size %d step %d now %d: got %s, want %s", size, step, now, got, want)
			}
		}
	}
}
