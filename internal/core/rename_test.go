package core

import (
	"testing"
	"testing/quick"

	"rarsim/internal/isa"
)

func TestRegFileInit(t *testing.T) {
	r := newRegFile(168, 168)
	// Architectural registers map to the low physical registers, ready.
	for a := isa.Reg(0); a < isa.NumRegs; a++ {
		p := r.lookup(a)
		if p < 0 || !r.ready[p] {
			t.Fatalf("arch %v unmapped or not ready", a)
		}
	}
	ints, fps := r.freeRegs()
	if ints != 168-isa.NumIntRegs || fps != 168-isa.NumFpRegs {
		t.Errorf("free = %d/%d", ints, fps)
	}
	if r.lookup(isa.NoReg) != -1 {
		t.Error("NoReg must map to -1")
	}
}

func TestRenameAndFree(t *testing.T) {
	r := newRegFile(40, 40)
	old := r.lookup(3)
	p, prev := r.rename(3)
	if prev != old {
		t.Errorf("prev = %d, want %d", prev, old)
	}
	if r.lookup(3) != p || r.ready[p] {
		t.Error("rename must install a fresh not-ready register")
	}
	// FP registers come from the FP file.
	pf, _ := r.rename(isa.FirstFpReg + 2)
	if !r.isFp(pf) || r.isFp(p) {
		t.Error("register kind misallocated")
	}
	ints, fps := r.freeRegs()
	if ints != 40-32-1 || fps != 40-32-1 {
		t.Errorf("free after renames = %d/%d", ints, fps)
	}
	r.free(prev)
	ints, _ = r.freeRegs()
	if ints != 40-32 {
		t.Errorf("free after release = %d", ints)
	}
	r.free(-1) // must be a no-op
}

func TestAllocExhaustion(t *testing.T) {
	r := newRegFile(34, 34)
	if !r.canAlloc(false) {
		t.Fatal("should have 2 free int regs")
	}
	r.alloc(false)
	r.alloc(false)
	if r.canAlloc(false) {
		t.Error("int file must be exhausted")
	}
	if !r.canAlloc(true) {
		t.Error("fp file must be unaffected")
	}
}

func TestRATCheckpointRestore(t *testing.T) {
	r := newRegFile(64, 64)
	snap := r.snapshotRAT()
	r.rename(1)
	r.rename(2)
	r.rename(isa.FirstFpReg)
	r.restoreRAT(snap)
	for a := isa.Reg(0); a < isa.NumRegs; a++ {
		if r.lookup(a) != snap[a] {
			t.Fatalf("arch %v not restored", a)
		}
	}
}

// Property: any sequence of rename/rollback/commit operations conserves
// registers — mapped + free = total, with no double allocation.
func TestRenameConservation(t *testing.T) {
	type op struct {
		Arch   uint8
		Action uint8 // 0 = rename+commit (free prev), 1 = rename+rollback
	}
	f := func(ops []op) bool {
		r := newRegFile(64, 64)
		for _, o := range ops {
			a := isa.Reg(o.Arch % isa.NumRegs)
			if !r.canAlloc(a.IsFp()) {
				continue
			}
			p, prev := r.rename(a)
			if o.Action%2 == 0 {
				r.free(prev) // commit: previous mapping dies
			} else {
				r.rat[a] = prev // squash: rollback
				r.free(p)
			}
		}
		// Conservation: every physical register is either free or mapped
		// by exactly one architectural register.
		seen := make(map[int16]int)
		for a := isa.Reg(0); a < isa.NumRegs; a++ {
			seen[r.lookup(a)]++
		}
		ints, fps := r.freeLists()
		for _, p := range append(append([]int16{}, ints...), fps...) {
			seen[p]++
		}
		if len(seen) != 128 {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
