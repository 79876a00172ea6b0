// Package flow holds writes that statshygiene must not take for dead
// state. A store through a pointer field reads the pointer: `*o.ptr = v`
// needs ptr, so ptr is live although nothing else reads it. The corpus
// expects no finding.
package flow

type inner struct {
	a uint64
	b uint64
}

type outer struct {
	in  inner
	ptr *inner
}

// wholeStruct replaces struct values: o.in directly, and the pointee of
// o.ptr through the pointer.
func (o *outer) wholeStruct() {
	o.in = inner{}
	*o.ptr = inner{a: 1}
}

// total reads the fields wholeStruct writes; ptr needs no such reader.
func (o *outer) total() uint64 {
	return o.in.a + o.in.b
}
