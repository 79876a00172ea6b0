package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Nop: "nop", IntAlu: "ialu", IntMult: "imul", IntDiv: "idiv",
		FpAdd: "fadd", FpMult: "fmul", FpDiv: "fdiv",
		Load: "load", Store: "store", Branch: "branch",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := Class(200).String(); got != "class(200)" {
		t.Errorf("out-of-range class = %q", got)
	}
}

func TestClassPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() {
		t.Error("Load/Store must be memory classes")
	}
	if IntAlu.IsMem() || Branch.IsMem() {
		t.Error("IntAlu/Branch must not be memory classes")
	}
	for _, c := range []Class{FpAdd, FpMult, FpDiv} {
		if !c.IsFp() {
			t.Errorf("%v must be FP", c)
		}
	}
	for _, c := range []Class{IntAlu, IntMult, IntDiv, Load, Store, Branch, Nop} {
		if c.IsFp() {
			t.Errorf("%v must not be FP", c)
		}
	}
}

func TestRegSpaces(t *testing.T) {
	if !Reg(0).IsInt() || !Reg(31).IsInt() {
		t.Error("r0..r31 are integer registers")
	}
	if Reg(31).IsFp() || !Reg(32).IsFp() || !Reg(63).IsFp() {
		t.Error("r32..r63 are FP registers")
	}
	if Reg(64).Valid() || NoReg.Valid() {
		t.Error("registers past 63 are invalid")
	}
	if got := Reg(3).String(); got != "r3" {
		t.Errorf("Reg(3) = %q", got)
	}
	if got := (FirstFpReg + 5).String(); got != "f5" {
		t.Errorf("f5 rendered as %q", got)
	}
	if got := NoReg.String(); got != "r?" {
		t.Errorf("NoReg rendered as %q", got)
	}
}

// Property: exactly one of IsInt, IsFp, !Valid holds for every register id.
func TestRegPartition(t *testing.T) {
	f := func(r uint8) bool {
		reg := Reg(r)
		n := 0
		if reg.IsInt() {
			n++
		}
		if reg.IsFp() {
			n++
		}
		if !reg.Valid() {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstHelpers(t *testing.T) {
	ld := Inst{Class: Load, Dest: 5, Addr: 0x1000, Size: 8, PC: 0x40}
	if !ld.IsLoad() || !ld.IsMem() || ld.IsStore() || !ld.HasDest() {
		t.Error("load predicates wrong")
	}
	if ld.FallThrough() != 0x44 {
		t.Errorf("load FallThrough = %#x", ld.FallThrough())
	}

	st := Inst{Class: Store, Src1: 2, Src2: NoReg, Dest: NoReg, Addr: 0x2000}
	if st.HasDest() || !st.IsStore() {
		t.Error("store predicates wrong")
	}
	nop := Inst{Class: Nop, Src1: NoReg, Src2: NoReg, Dest: NoReg}
	if !nop.IsNop() || nop.HasDest() {
		t.Error("nop predicates wrong")
	}
}

func TestInstString(t *testing.T) {
	// Smoke-test the debug renderings; they must mention the key operands.
	cases := []Inst{
		{Class: Load, Dest: 1, Addr: 0xabc, PC: 4},
		{Class: Store, Src1: 2, Addr: 0xdef, PC: 8},
		{Class: Branch, Taken: true, Target: 0x20, PC: 12},
		{Class: IntAlu, Dest: 3, Src1: 1, Src2: 2, PC: 16},
	}
	for _, in := range cases {
		if in.String() == "" {
			t.Errorf("empty String() for %v", in.Class)
		}
	}
}

// TestInstSize pins the packed layout: the core copies an Inst into every
// uop it fetches, and its uop budget is laid out around 32 bytes.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 32 {
		t.Errorf("Inst is %d bytes, want 32", n)
	}
}
