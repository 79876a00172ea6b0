package core

import "testing"

func TestSSTInsertContains(t *testing.T) {
	s := newSST(128)
	if s.contains(0x1000) {
		t.Error("empty SST must miss")
	}
	s.insert(0x1000)
	if !s.contains(0x1000) {
		t.Error("inserted PC must hit")
	}
	// Zero PCs are ignored: inserting one must not evict 0x204, which
	// shares its slot (slot 0 of a 128-entry table).
	s.insert(0x204)
	if sstIndex(0x204, s.mask) != sstIndex(0, s.mask) {
		t.Fatal("0x204 and 0 must share a slot")
	}
	s.insert(0)
	if !s.contains(0x204) {
		t.Error("inserting PC 0 evicted 0x204")
	}
}

func TestSSTSizeRounding(t *testing.T) {
	s := newSST(100) // rounds down to 64
	if len(s.entries) != 64 {
		t.Errorf("size = %d, want 64", len(s.entries))
	}
}

func TestProducers(t *testing.T) {
	p := newProducers(8)
	p.record(0x100, 0x80, 0x90)
	srcs, ok := p.lookup(0x100)
	if !ok || srcs != [2]uint64{0x80, 0x90} {
		t.Errorf("lookup = %v,%v", srcs, ok)
	}
	if _, ok := p.lookup(0x104); ok {
		t.Error("unknown PC must miss")
	}
	// Find a PC that collides under the hashed index and check it evicts
	// (the table is direct-mapped).
	target := sstIndex(0x100, p.mask)
	conflict := uint64(0)
	for pc := uint64(0x104); ; pc += 4 {
		if sstIndex(pc, p.mask) == target {
			conflict = pc
			break
		}
	}
	p.record(conflict, 0x1, 0x2)
	if _, ok := p.lookup(0x100); ok {
		t.Error("conflict must evict")
	}
}

func TestTrainSliceWalk(t *testing.T) {
	s := newSST(128)
	p := newProducers(10)
	// Build a chain: 0x500 <- 0x400 <- 0x300 <- 0x200 <- 0x100.
	p.record(0x500, 0x400, 0)
	p.record(0x400, 0x300, 0)
	p.record(0x300, 0x200, 0)
	p.record(0x200, 0x100, 0)
	p.record(0x100, 0, 0)
	trainSlice(s, p, 0x500, 3, 16)
	for _, pc := range []uint64{0x500, 0x400, 0x300, 0x200} {
		if !s.contains(pc) {
			t.Errorf("slice missing %#x", pc)
		}
	}
	// Depth limit 3: 0x100 is four dependence levels up.
	if s.contains(0x100) {
		t.Error("depth limit not honoured")
	}
}

func TestTrainSliceWidthLimit(t *testing.T) {
	s := newSST(128)
	p := newProducers(10)
	// A load with a wide fan-in tree.
	p.record(0x1000, 0x900, 0x910)
	p.record(0x900, 0x800, 0x810)
	p.record(0x910, 0x820, 0x830)
	trainSlice(s, p, 0x1000, 8, 3)
	n := 0
	for _, pc := range []uint64{0x1000, 0x900, 0x910, 0x800, 0x810, 0x820, 0x830} {
		if s.contains(pc) {
			n++
		}
	}
	if n > 3 {
		t.Errorf("maxSlice exceeded: %d PCs inserted", n)
	}
}

func TestTrainSliceCycle(t *testing.T) {
	s := newSST(128)
	p := newProducers(10)
	// Dependence "cycle" through stale producer info must terminate.
	p.record(0x100, 0x200, 0)
	p.record(0x200, 0x100, 0)
	trainSlice(s, p, 0x100, 10, 32) // must not hang
	if !s.contains(0x100) || !s.contains(0x200) {
		t.Error("cycle members missing")
	}
}

func TestUopPoolReuse(t *testing.T) {
	var p uopPool
	u := p.get()
	u.seq = 42
	p.put(u)
	v := p.get()
	if v != u {
		t.Error("pool must recycle")
	}
	if v.seq != 0 {
		t.Error("recycled uop not zeroed")
	}
}
