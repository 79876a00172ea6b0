// Package flow is the generalized field-flow engine's corpus:
// whole-struct writes, embedded promotions and method values, asserted
// directly by fieldflow_test.go rather than through any analyzer (so an
// ffsound or skipset regression localizes to the engine vs the check).
// It deliberately trips no analyzer: no seed function names, no
// directives, no expectations.
package flow

type inner struct {
	a uint64
	b uint64
}

type base struct {
	tick uint64
}

type outer struct {
	base
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

// promoted reads tick through the embedded base: the read credits both
// the promotion path's intermediate (outer.base) and base.tick.
func (o *outer) promoted() uint64 {
	return o.tick
}

// methodValue escapes the static call graph: bump runs via a bound
// method value, which the conservative closure must still follow.
func (o *outer) methodValue() {
	f := o.bump
	f()
}

func (o *outer) bump() { o.count++ }

// reader reaches promoted only through a method value, so its read
// closure covers the promotion fields iff the engine follows values.
func reader(o *outer) uint64 {
	g := o.promoted
	return g()
}

// total reads what the functions above only write. base (read through
// the promotion in promoted) and ptr (read by the dereference in
// wholeStruct) need no such reader: statshygiene counts both as read.
func (o *outer) total() uint64 {
	return o.in.a + o.in.b + o.count
}
