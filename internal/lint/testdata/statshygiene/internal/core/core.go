// Package core declares the audited Stats struct and its producer side.
package core

import "statcorpus/internal/mem"

// Stats mirrors the simulator's statistics struct: rarlint audits every
// field of a named Stats/Metrics type declared under internal/.
type Stats struct {
	Cycles    uint64 // written by Tick, read by report.Line: clean
	Committed uint64 // written and read: clean
	Dead      uint64 //lintwant statshygiene (written by Tick, never read)
	Ghost     uint64 //lintwant statshygiene (read by report.Line, never written)
	Unused    uint64 //lintwant statshygiene (never touched outside plumbing)
	// Waived is observability-only; the directive keeps it with the
	// reason on record.
	//rarlint:allow statshygiene corpus example of an audited waiver
	Waived uint64
	// Mem nests another audited struct: reading st.Mem.Hits consumes
	// Hits (the outermost selected field), not Mem itself.
	Mem mem.Stats
}

// Tick writes the counters the simulated core maintains.
func (s *Stats) Tick() {
	s.Cycles++
	s.Committed += 4
	s.Dead++
	s.Waived++
	s.Mem.Hits++
	s.Mem.Misses++
}

// Reset overwrites the nested struct wholesale: a write of Mem.
func (s *Stats) Reset() {
	s.Mem = mem.Stats{}
}

// merge is counter-wise plumbing (warmup subtraction): it counts as
// neither a read nor a write, so touching every field here cannot hide
// a dead or ghost statistic.
func (s *Stats) merge(w Stats) {
	s.Cycles -= w.Cycles
	s.Committed -= w.Committed
	s.Dead -= w.Dead
	s.Ghost -= w.Ghost
	s.Unused -= w.Unused
	s.Waived -= w.Waived
}

// geometry is state that Pipeline reaches through its geom field.
type geometry struct {
	width int
}

// Pipeline is plain state, not a statistics struct: only its unexported
// fields are audited, and only for writes that nothing reads.
type Pipeline struct {
	geom    geometry // read only through p.geom.width: clean
	retired uint64   //lintwant statshygiene (written by Retire, never read)
	Slots   uint64   // exported, written, never read: clean (reflection may read it)
}

// NewPipeline writes every field.
func NewPipeline(width int) *Pipeline {
	return &Pipeline{geom: geometry{width: width}, Slots: 1}
}

// Retire bumps retired and reads geom through an intermediate selector.
func (p *Pipeline) Retire() int {
	p.retired++
	p.Slots++
	return p.geom.width
}

// slot is only ever built and used as a map key: the key comparison
// reads both fields, so neither is flagged.
type slot struct {
	set, way int
}

// Cached looks a slot up.
func Cached(m map[slot]bool, set, way int) bool {
	return m[slot{set, way}]
}
