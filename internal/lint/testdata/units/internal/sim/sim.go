// Package sim exercises the units analyzer: fields and functions carry
// //rarlint:unit dimensions, constants are unit-polymorphic, locals are
// unknown, and only a provable clash between two known dimensions is a
// finding.
package sim

import "sync"

type stats struct {
	cycles   uint64 //rarlint:unit cycles
	insts    uint64 //rarlint:unit insts
	bits     uint64 //rarlint:unit bits
	abc      uint64 //rarlint:unit bitcycles
	deadline uint64 //rarlint:unit cycles
}

// Adding cycles to instructions is never meaningful.
func bad(s stats) uint64 {
	return s.cycles + s.insts //lintwant units
}

// Assigning across dimensions is rejected too.
func badAssign(s *stats) {
	s.deadline = s.insts //lintwant units
}

func badCompare(s stats) bool {
	return s.cycles < s.bits //lintwant units
}

// cpiNotIpc declares the IPC ratio but divides the wrong way around.
//
//rarlint:unit insts/cycles
func cpiNotIpc(s stats) float64 {
	return float64(s.cycles) / float64(s.insts) //lintwant units
}

// Clean: the declared ratio checks out, and the early constant return
// is polymorphic.
//
//rarlint:unit insts/cycles
func ipc(s stats) float64 {
	if s.cycles == 0 {
		return 0
	}
	return float64(s.insts) / float64(s.cycles)
}

// Clean: bits*cycles is exactly the derived bitcycles dimension, and
// constants adapt to any unit.
func accumulate(s *stats) uint64 {
	s.abc += s.bits * s.cycles
	return s.cycles + 1
}

// Clean: a plain local is unknown, and unknown never clashes.
func elapsed(s stats, start uint64) uint64 {
	return s.cycles - start
}

// An unknown base unit in a directive is a lint finding; the field
// stays unannotated rather than guessing.
type odometer struct {
	//lintwant lint
	//rarlint:unit furlongs
	x uint64
}

// A floating unit directive annotates nothing and is reported.
func helper(o odometer) uint64 {
	v := o.x
	//lintwant units
	//rarlint:unit cycles
	v++
	return v
}

// Directives stack in a field's doc comment in any order: the unit above
// a guardedby directive still annotates the field.
type gauge struct {
	mu sync.Mutex
	//rarlint:unit cycles
	//rarlint:guardedby mu
	busy uint64
}

func (g *gauge) mix(s stats) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.busy + s.insts //lintwant units
}
