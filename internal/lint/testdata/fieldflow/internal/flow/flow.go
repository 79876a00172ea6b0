// Package flow is the write-closure engine's corpus: whole-struct
// writes and method values, asserted directly by fieldflow_test.go
// rather than through any analyzer (so a flushreset regression
// localizes to the engine vs the check). It deliberately trips no
// analyzer: no seed function names, no directives, no expectations.
package flow

type inner struct {
	a uint64
	b uint64
}

type outer struct {
	in    inner
	ptr   *inner
	count uint64
}

// wholeStruct replaces struct values: writing o.in writes inner.a and
// inner.b too, and *o.ptr = ... writes every field of the pointee
// without writing the ptr field itself.
func (o *outer) wholeStruct() {
	o.in = inner{}
	*o.ptr = inner{a: 1}
}

// methodValue escapes the static call graph: bump runs via a bound
// method value, which the conservative closure must still follow.
func (o *outer) methodValue() {
	f := o.bump
	f()
}

func (o *outer) bump() { o.count++ }

// total reads what the functions above only write. ptr (read by the
// dereference in wholeStruct) needs no such reader: statshygiene counts
// it as read.
func (o *outer) total() uint64 {
	return o.in.a + o.in.b + o.count
}
