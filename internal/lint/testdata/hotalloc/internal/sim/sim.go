// Package sim exercises the hotalloc analyzer: functions rooted with
// //rarlint:hot must be allocation-free, transitively over the module
// call graph, with //rarlint:allow hotalloc call-site barriers cutting
// audited cold paths out of the closure.
package sim

import (
	"math"
	"strconv"
	"sync/atomic"
)

// gen is the corpus's interface dependency: interface methods cannot be
// proven allocation-free.
type gen interface {
	next() int
}

type core struct {
	buf   []int
	log   []int
	out   any
	ptr   *int
	fn    func() int
	src   gen
	ticks atomic.Uint64
	name  string
}

// The per-cycle root: every construct below allocates.
//
//rarlint:hot
func (c *core) step(v int, label string) {
	scratch := make([]int, 4) //lintwant hotalloc
	_ = scratch
	idx := map[string]int{} //lintwant hotalloc
	_ = idx
	pair := []int{v, v} //lintwant hotalloc
	_ = pair
	n := new(int) //lintwant hotalloc
	_ = n
	h := &core{} //lintwant hotalloc
	_ = h
	c.fn = func() int { return v } //lintwant hotalloc
	c.name = label + "!"           //lintwant hotalloc
	c.buf = append(c.log, v)       //lintwant hotalloc
	c.out = v                      //lintwant hotalloc
	c.ptr = &v                     //lintwant hotalloc
	_ = []byte(label)              //lintwant hotalloc
}

// panic(constant) reuses the constant, but a non-constant argument is
// boxed on the way out.
//
//rarlint:hot
func mustPositive(v int) {
	if v < 0 {
		panic(v) //lintwant hotalloc
	}
}

// tick pulls record and sum into the closure: record's growing append
// is reported against this root, sum keeps the closure quiet.
//
//rarlint:hot
func tick(c *core, v int) int {
	c.log = append(c.log, v)
	record(c, v)
	return sum(c.log)
}

func record(c *core, v int) {
	c.buf = append(c.buf, v) // clean: a self-append reuses capacity
	c.log = append(c.buf, v) //lintwant hotalloc
}

func sum(xs []int) int {
	t := 0
	for _, v := range xs {
		t += v
	}
	return t
}

// A self-append to a local slice declared empty has no capacity to
// reuse; a re-slice of persistent state does.
//
//rarlint:hot
func collect(c *core) int {
	var tmp []int
	tmp = append(tmp, 1) //lintwant hotalloc
	pool := c.buf[:0]
	pool = append(pool, 2) // clean: reuses c.buf's backing array
	return tmp[0] + pool[0]
}

// math and sync/atomic are whitelisted externals; strconv is not.
//
//rarlint:hot
func mix(c *core, v float64) float64 {
	c.ticks.Add(1)
	r := math.Sqrt(v)
	s := strconv.Itoa(int(v)) //lintwant hotalloc
	_ = s
	return r
}

// Function values and interface methods cannot be proven
// allocation-free.
//
//rarlint:hot
func advance(c *core) int {
	a := c.fn()       //lintwant hotalloc
	b := c.src.next() //lintwant hotalloc
	return a + b
}

// A barrier allow on the call line cuts grow out of the closure: its
// allocations are audited cold-path growth, not per-cycle garbage.
//
//rarlint:hot
func warm(c *core) {
	//rarlint:allow hotalloc one-time warmup growth, audited
	grow(c)
	c.buf = append(c.buf, 0)
}

func grow(c *core) {
	c.buf = make([]int, 0, 1024)
}

// An ordinary allow suppresses a non-call finding the usual way.
//
//rarlint:hot
func seed(c *core) {
	c.log = append(c.log, len(c.buf))
	c.out = len(c.buf) //rarlint:allow hotalloc out is written once per run and read cold
}

// The exported skip pattern (a contract-checked fast-forward wrapper): a
// hot function whose contract-violation panic — message formatting and
// all — is waived on the line above the panic. It can only fire on a run
// that is already dead, so its allocations are not per-cycle garbage;
// the healthy path must still be clean.
//
//rarlint:hot
func skipTo(c *core, target int) {
	if target < len(c.buf) {
		//rarlint:allow hotalloc contract-violation panic, never taken on a healthy run
		panic("skipTo: " + strconv.Itoa(target))
	}
	c.buf = append(c.buf, target)
}

// A hot directive must sit on a function declaration.
// lintwant hotalloc
//
//rarlint:hot
var budget = 64

// coldSetup is reachable from no hot root: it may allocate freely.
func coldSetup() *core {
	return &core{buf: make([]int, 0, budget)}
}

// A barrier allow trailing one call cuts only that call: the same
// callee on the next line is followed, and its allocation reported.
//
//rarlint:hot
func regrow(c *core) {
	reserve(c) //rarlint:allow hotalloc one-time warmup growth, audited
	reserve(c)
}

func reserve(c *core) {
	c.log = make([]int, 0, 64) //lintwant hotalloc
}
