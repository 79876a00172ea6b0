package core

import (
	"rarsim/internal/isa"
	"rarsim/internal/trace"
)

// streamBuf buffers the correct-path dynamic instruction stream between the
// workload generator and the front-end, with rewind support.
//
// The front-end reads instructions at a cursor; squash recovery (branch
// misprediction repair, runahead exit, Flushing) rewinds the cursor to an
// earlier index so the same dynamic instructions are re-fetched — exactly
// the re-fetch that real hardware performs. Commit releases entries that
// can never be re-fetched again.
type streamBuf struct {
	gen trace.Source
	// blk is gen's batch face when it has one (see trace.BlockSource):
	// refills then synthesise a whole block of instructions straight into
	// buf with one call instead of one virtual dispatch per instruction.
	blk  trace.BlockSource
	buf  []isa.Inst
	base uint64 // global index of buf[0]
	cur  uint64 // global index of the next instruction to fetch
	// refill is the block size per batched refill. Generating ahead of the
	// cursor is safe: the correct-path stream is a pure deterministic
	// sequence, so *when* an instruction is synthesised can never change
	// *what* it is — the buffer contents are byte-identical to scalar,
	// one-at-a-time generation.
	refill int
	// scratch receives each generated instruction on the scalar fallback
	// path: passing a local's address through the trace.Source interface
	// would force that local to the heap on every generated instruction.
	scratch isa.Inst
}

// streamRefillBlock is the default batched-refill block size.
const streamRefillBlock = 64

func newStreamBuf(gen trace.Source) *streamBuf {
	s := &streamBuf{gen: gen, refill: streamRefillBlock}
	if b, ok := gen.(trace.BlockSource); ok {
		s.blk = b
	}
	return s
}

// next returns the instruction at the cursor along with its global index,
// and advances the cursor.
func (s *streamBuf) next() (isa.Inst, uint64) {
	idx := s.cur
	in := *s.at(idx)
	s.cur++
	return in, idx
}

// peek returns the instruction at the cursor without advancing.
func (s *streamBuf) peek() *isa.Inst { return s.at(s.cur) }

// at returns the instruction at global index idx, generating as needed.
// idx must be >= the release watermark.
func (s *streamBuf) at(idx uint64) *isa.Inst {
	if idx < s.base {
		panic("core: stream rewind past released instructions")
	}
	for idx >= s.base+uint64(len(s.buf)) {
		s.fill()
	}
	return &s.buf[idx-s.base]
}

// fill extends buf by one refill block when the generator has a batch face,
// or by a single instruction on the scalar fallback path. The buffer's
// capacity quickly reaches a steady-state high-water mark (release keeps
// the live window bounded by in-flight instructions plus one refill block),
// after which refills run allocation-free.
func (s *streamBuf) fill() {
	if s.blk == nil {
		s.gen.Next(&s.scratch)
		s.buf = append(s.buf, s.scratch)
		return
	}
	n := len(s.buf)
	if cap(s.buf)-n < s.refill {
		grown := make([]isa.Inst, n, 2*cap(s.buf)+s.refill)
		copy(grown, s.buf)
		s.buf = grown
	}
	s.buf = s.buf[:n+s.refill]
	s.blk.NextBlock(s.buf[n : n+s.refill])
}

// cursor returns the current fetch position.
func (s *streamBuf) cursor() uint64 { return s.cur }

// rewind moves the fetch position back to global index idx.
func (s *streamBuf) rewind(idx uint64) {
	if idx < s.base {
		panic("core: stream rewind past released instructions")
	}
	if idx > s.cur {
		panic("core: stream rewind forward")
	}
	s.cur = idx
}

// release discards instructions with global index < idx; they have
// committed and can never be re-fetched.
func (s *streamBuf) release(idx uint64) {
	if idx <= s.base {
		return
	}
	drop := idx - s.base
	if drop > uint64(len(s.buf)) {
		drop = uint64(len(s.buf))
	}
	// Compact occasionally rather than on every commit.
	if drop >= 1024 {
		n := copy(s.buf, s.buf[drop:])
		s.buf = s.buf[:n]
		s.base += drop
	}
}
