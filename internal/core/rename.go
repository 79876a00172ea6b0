package core

import "rarsim/internal/isa"

// regFile is the register renaming state: the register allocation table
// (RAT), the physical-register free lists, and the per-physical-register
// ready and INV (runahead poison) bits.
//
// Physical registers are numbered 0..nInt-1 for the integer file and
// nInt..nInt+nFp-1 for the FP file, so a single id space serves both.
type regFile struct {
	nInt, nFp int

	rat [isa.NumRegs]int16 //rarlint:quiescent rename state: read only by stage-driven rename and the checkpointed restore
	//rarlint:survives per-register bit is dead once the register is freed; alloc clears it on reallocation
	ready []bool
	//rarlint:survives poison bit is dead once the register is freed; alloc clears it on reallocation
	inv []bool //rarlint:quiescent poison bits: read only by stage-driven rename and cleared on reallocation

	// freeInt[:nFreeInt] and freeFp[:nFreeFp] are the free lists: stacks
	// sized to their files, whose depths live in ints so that renaming
	// rewrites no slice header.
	freeInt  []int16 //rarlint:quiescent free-list entries: dispatch is bounded by the depth, nFreeInt, which canAlloc reads
	freeFp   []int16 //rarlint:quiescent free-list entries: dispatch is bounded by the depth, nFreeFp, which canAlloc reads
	nFreeInt int
	nFreeFp  int
}

func newRegFile(nInt, nFp int) *regFile {
	r := &regFile{
		nInt:    nInt,
		nFp:     nFp,
		ready:   make([]bool, nInt+nFp),
		inv:     make([]bool, nInt+nFp),
		freeInt: make([]int16, nInt),
		freeFp:  make([]int16, nFp),
	}
	// Architectural registers start mapped to the low physical registers
	// of each file, ready and clean.
	for a := 0; a < isa.NumIntRegs; a++ {
		r.rat[a] = int16(a)
		r.ready[a] = true
	}
	for a := 0; a < isa.NumFpRegs; a++ {
		p := int16(nInt + a)
		r.rat[isa.FirstFpReg+isa.Reg(a)] = p
		r.ready[p] = true
	}
	for p := isa.NumIntRegs; p < nInt; p++ {
		r.free(int16(p))
	}
	for p := nInt + isa.NumFpRegs; p < nInt+nFp; p++ {
		r.free(int16(p))
	}
	return r
}

// lookup returns the physical register currently mapped to arch register a,
// or -1 for an absent operand.
func (r *regFile) lookup(a isa.Reg) int16 {
	if !a.Valid() {
		return -1
	}
	return r.rat[a]
}

// canAlloc reports whether a destination register of the given kind is
// available.
func (r *regFile) canAlloc(fp bool) bool {
	if fp {
		return r.nFreeFp > 0
	}
	return r.nFreeInt > 0
}

// alloc takes a free physical register of the requested kind, marks it
// not-ready and clean, and returns it. Callers must check canAlloc.
func (r *regFile) alloc(fp bool) int16 {
	var p int16
	if fp {
		r.nFreeFp--
		p = r.freeFp[r.nFreeFp]
	} else {
		r.nFreeInt--
		p = r.freeInt[r.nFreeInt]
	}
	r.ready[p] = false
	r.inv[p] = false
	return p
}

// free returns physical register p to its free list.
func (r *regFile) free(p int16) {
	if p < 0 {
		return
	}
	if int(p) < r.nInt {
		r.freeInt[r.nFreeInt] = p
		r.nFreeInt++
	} else {
		r.freeFp[r.nFreeFp] = p
		r.nFreeFp++
	}
}

// isFp reports whether physical register p belongs to the FP file.
func (r *regFile) isFp(p int16) bool { return int(p) >= r.nInt }

// rename maps the destination arch register a to a fresh physical
// register, returning (newPhys, prevPhys).
func (r *regFile) rename(a isa.Reg) (int16, int16) {
	prev := r.rat[a]
	p := r.alloc(a.IsFp())
	r.rat[a] = p
	return p, prev
}

// snapshotRAT copies the current RAT (the runahead checkpoint).
func (r *regFile) snapshotRAT() [isa.NumRegs]int16 { return r.rat }

// restoreRAT replaces the RAT with a checkpoint.
func (r *regFile) restoreRAT(s [isa.NumRegs]int16) { r.rat = s }

// freeRegs returns the number of free registers of each kind, for stats.
func (r *regFile) freeRegs() (ints, fps int) { return r.nFreeInt, r.nFreeFp }

// freeLists returns the free registers of each kind.
func (r *regFile) freeLists() (ints, fps []int16) {
	return r.freeInt[:r.nFreeInt], r.freeFp[:r.nFreeFp]
}
