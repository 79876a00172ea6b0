// Package sim exercises the lockcheck analyzer: //rarlint:guardedby
// fields may only be touched while their mutex is statically held,
// //rarlint:locked methods carry the lock as an entry contract, and a
// struct with a mutex field must declare a synchronization story for
// every other field.
package sim

import (
	"sync"
	"sync/atomic"
)

// engine is fully annotated: a mutex-guarded map and counter, an atomic
// hit counter, and an init-only name.
type engine struct {
	mu    sync.Mutex
	cells map[string]int //rarlint:guardedby mu
	count int            //rarlint:guardedby mu
	hits  atomic.Uint64  //rarlint:guardedby atomic
	name  string         //rarlint:guardedby init
}

// Clean: lock, touch, unlock.
func (e *engine) inc(key string) {
	e.mu.Lock()
	e.cells[key]++
	e.count++
	e.mu.Unlock()
}

// Clean: the deferred unlock both covers the accesses and excuses the
// return-while-held.
func (e *engine) get(key string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cells[key]
}

// Clean: atomic and init-only fields need no lock.
func (e *engine) observe() string {
	e.hits.Add(1)
	return e.name
}

// Reading a guarded field without the lock.
func (e *engine) racyCount() int {
	return e.count //lintwant lockcheck
}

// Writing through an index expression without the lock.
func (e *engine) racyCell(key string) {
	e.cells[key] = 0 //lintwant lockcheck
}

// Acquiring a held write lock is a guaranteed deadlock.
func (e *engine) deadlock() {
	e.mu.Lock()
	e.mu.Lock() //lintwant lockcheck
	e.count++
	e.mu.Unlock()
	e.mu.Unlock()
}

// Returning with the mutex held and no deferred unlock.
func (e *engine) leak() int {
	e.mu.Lock()
	n := e.count
	return n //lintwant lockcheck
}

// A lock taken on only one branch does not survive the merge: held
// states intersect.
func (e *engine) halfLocked(c bool) int {
	if c {
		e.mu.Lock()
	}
	n := e.count //lintwant lockcheck
	if c {
		e.mu.Unlock()
	}
	return n
}

// A function literal starts with an empty lock state — it may run on
// another goroutine, or after the caller has unlocked.
func (e *engine) snapshotFn() func() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return func() int {
		return e.count //lintwant lockcheck
	}
}

// Constructor idiom: a local freshly built from a composite literal is
// not shared yet, so its fields need no lock.
func newEngine(name string) *engine {
	e := &engine{cells: map[string]int{}}
	e.count = 1
	e.name = name
	return e
}

// evict's contract is "called with e.mu held": the body is analyzed
// with the lock held at entry, and every call site is checked.
//
//rarlint:locked mu
func (e *engine) evict() {
	for len(e.cells) > 4 {
		for k := range e.cells {
			delete(e.cells, k)
			break
		}
	}
	e.count = len(e.cells)
}

// Clean: the caller holds the lock across the contract call.
func (e *engine) trim() {
	e.mu.Lock()
	e.evict()
	e.mu.Unlock()
}

// Calling a locked method without holding the mutex.
func (e *engine) trimRacy() {
	e.evict() //lintwant lockcheck
}

// A well-formed allow waives one audited access.
func (e *engine) audited() int {
	return e.count //rarlint:allow lockcheck single-threaded audit hook, caller stops the world first
}

// ring is read-mostly: an RLock satisfies the guard.
type ring struct {
	mu  sync.RWMutex
	buf []int //rarlint:guardedby mu
}

// Clean: reads under the read lock.
func (r *ring) sum() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, v := range r.buf {
		n += v
	}
	return n
}

// A write without any lock at all.
func (r *ring) push(v int) {
	r.buf = append(r.buf, v) //lintwant lockcheck
}

// The guardedby argument must name a sibling mutex field.
type misnamed struct {
	mu sync.Mutex
	//rarlint:guardedby lock
	n int //lintwant lockcheck
}

// guardedby atomic demands a sync/atomic type.
type fakeAtomic struct {
	mu sync.Mutex
	//rarlint:guardedby atomic
	n int //lintwant lockcheck
}

// Completeness: a mutex-guarded struct must annotate every field.
type undeclared struct {
	mu sync.Mutex
	n  int //lintwant lockcheck
}

// A locked contract on a receiver without the named mutex.
type plain struct {
	n int
}

//rarlint:locked mu
func (p *plain) bump() { //lintwant lockcheck
	p.n++
}

// A guardedby directive attached to nothing.
// lintwant lockcheck
//
//rarlint:guardedby mu
var orphan int

// A locked directive on a plain function (no receiver) attaches to
// nothing either.
// lintwant lockcheck
//
//rarlint:locked mu
func freestanding() int { return orphan }

// An argument-less guardedby is malformed (a "lint" finding) and guards
// nothing, so completeness still wants a story for the field.
type halfBaked struct {
	mu sync.Mutex
	//lintwant lint
	//rarlint:guardedby
	n int //lintwant lockcheck
}

// An argument-less locked is malformed and yields no contract; the
// method body is checked like any other.
type store struct {
	mu sync.Mutex
	n  int //rarlint:guardedby mu
}

// lintwant lint
//
//rarlint:locked
func (s *store) compact() {
	s.mu.Lock()
	s.n = 0
	s.mu.Unlock()
}

// A directive shares a field's doc comment with its text: the guardedby
// below the doc line still guards the field.
type stacked struct {
	mu sync.Mutex
	// n sums the added amounts.
	//rarlint:guardedby mu
	n uint64
}

// Clean: the stacked guard is honoured.
func (s *stacked) add(d uint64) {
	s.mu.Lock()
	s.n += d
	s.mu.Unlock()
}

// The stacked guard is enforced, too.
func (s *stacked) peek() uint64 {
	return s.n //lintwant lockcheck
}
