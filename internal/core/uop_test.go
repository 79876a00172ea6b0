package core

import (
	"testing"
	"unsafe"
)

// TestUopSize pins the uop at four cache lines: the pool, the ROB ring
// and every stage walk touch whole uops, and the field order in uop.go
// keeps the fields non-branch stage walks read in the first three.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 256 {
		t.Errorf("uop is %d bytes, want at most 256", n)
	}
}
