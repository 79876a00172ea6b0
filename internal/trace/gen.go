package trace

import (
	"fmt"

	"rarsim/internal/isa"
)

// CacheLine is the line size the address streams are laid out for. It must
// match the memory hierarchy's line size (internal/mem uses the same value).
const CacheLine = 64

// depRingSize bounds how far back an Op.Dep distance may reach.
const depRingSize = 64

// Generator walks a Benchmark's program and emits its dynamic instruction
// stream. The stream is infinite (the program loops forever); the simulator
// decides when to stop. A Generator is not safe for concurrent use.
type Generator struct {
	rnd     *rng
	kernels []kernelState

	// schedule is the weighted round-robin activation order of kernels.
	schedule []int
	schedPos int

	cur  int // index into kernels of the active kernel
	iter int // current iteration of the active kernel
	slot int // next body slot to emit, len(body) = back-edge

	// destRing records the destination registers of the most recent
	// dynamic instructions, for Dep wiring.
	destRing [depRingSize]isa.Reg
	ringPos  int

	// register allocation cursors
	nextInt int
	nextFp  int

	// lastLoadDest is the destination of the most recent load, for
	// DepLoad branches.
	lastLoadDest isa.Reg

	// wrong-path synthesiser
	wp *wpSynth
}

type kernelState struct {
	spec    Kernel
	pcBase  uint64
	streams []streamState
}

type streamState struct {
	spec     StreamSpec
	base     uint64
	cursor   uint64
	lastDest isa.Reg // previous load's dest, for Chase dependence
	rnd      *rng
}

// New builds a Generator for benchmark b with the given seed. Invalid
// benchmark specifications (bad stream indices, out-of-range skips) panic:
// benchmarks are compiled-in package data, so a bad spec is a programming
// error, not an input error.
func New(b Benchmark, seed uint64) *Generator {
	if len(b.Kernels) == 0 {
		panic("trace: benchmark " + b.Name + " has no kernels")
	}
	g := &Generator{
		rnd:          newRNG(seed),
		lastLoadDest: isa.NoReg,
	}
	for i := range g.destRing {
		g.destRing[i] = isa.NoReg
	}
	for ki, k := range b.Kernels {
		validateKernel(b.Name, k)
		ks := kernelState{
			spec:   k,
			pcBase: 0x10000000 + uint64(ki)*0x100000,
		}
		for si, ss := range k.Streams {
			ks.streams = append(ks.streams, streamState{
				spec:     ss,
				base:     uint64(ki*16+si+1) << 26, // 64 MiB spacing
				lastDest: isa.NoReg,
				rnd:      newRNG(seed ^ (uint64(ki)<<32 | uint64(si))),
			})
		}
		g.kernels = append(g.kernels, ks)
		w := k.Weight
		if w <= 0 {
			w = 1
		}
		for j := 0; j < w; j++ {
			g.schedule = append(g.schedule, ki)
		}
	}
	g.wp = newWpSynth(seed, g.kernels[0].streams[0].base)
	g.activate(g.schedule[0])
	g.schedPos = 1 % len(g.schedule)
	return g
}

func validateKernel(bench string, k Kernel) {
	if len(k.Body) == 0 {
		panic(fmt.Sprintf("trace: %s kernel %s has empty body", bench, k.Name))
	}
	if k.Iterations <= 0 {
		panic(fmt.Sprintf("trace: %s kernel %s needs Iterations >= 1", bench, k.Name))
	}
	if len(k.Streams) == 0 {
		panic(fmt.Sprintf("trace: %s kernel %s needs at least one stream", bench, k.Name))
	}
	for i, op := range k.Body {
		if op.Class.IsMem() && (op.Stream < 0 || op.Stream >= len(k.Streams)) {
			panic(fmt.Sprintf("trace: %s kernel %s op %d references stream %d of %d",
				bench, k.Name, i, op.Stream, len(k.Streams)))
		}
		if op.Class == isa.Branch && i+1+op.SkipLen >= len(k.Body)+1 {
			panic(fmt.Sprintf("trace: %s kernel %s op %d skip %d runs past body",
				bench, k.Name, i, op.SkipLen))
		}
		if op.Dep1 >= depRingSize || op.Dep2 >= depRingSize {
			panic(fmt.Sprintf("trace: %s kernel %s op %d dep distance exceeds %d",
				bench, k.Name, i, depRingSize))
		}
	}
}

func (g *Generator) activate(ki int) {
	g.cur = ki
	g.iter = 0
	g.slot = 0
}

// Next fills in with the next correct-path dynamic instruction.
func (g *Generator) Next(in *isa.Inst) {
	k := &g.kernels[g.cur]
	body := k.spec.Body

	if g.slot >= len(body) {
		// Loop back-edge: taken while iterations remain.
		*in = isa.Inst{
			PC:     k.pcBase + uint64(len(body))*isa.InstBytes,
			Class:  isa.Branch,
			Src1:   isa.NoReg,
			Src2:   isa.NoReg,
			Dest:   isa.NoReg,
			Taken:  g.iter < k.spec.Iterations-1,
			Target: k.pcBase,
		}
		if in.Taken {
			g.iter++
			g.slot = 0
		} else {
			g.activate(g.schedule[g.schedPos])
			g.schedPos = (g.schedPos + 1) % len(g.schedule)
		}
		g.pushDest(isa.NoReg)
		return
	}

	op := body[g.slot]
	pc := k.pcBase + uint64(g.slot)*isa.InstBytes
	*in = isa.Inst{
		PC:    pc,
		Class: op.Class,
		Src1:  isa.NoReg,
		Src2:  isa.NoReg,
		Dest:  isa.NoReg,
	}
	g.wireSrcs(in, op)

	switch op.Class {
	case isa.Load:
		st := &k.streams[op.Stream]
		in.Addr = st.next()
		in.Size = 8
		if st.spec.Pattern == Chase && st.lastDest.Valid() {
			in.Src1 = st.lastDest
		}
		in.Dest = g.allocDest(op.Fp)
		st.lastDest = in.Dest
		g.lastLoadDest = in.Dest
	case isa.Store:
		st := &k.streams[op.Stream]
		in.Addr = st.next()
		in.Size = 8
		if !in.Src1.Valid() {
			in.Src1 = g.recentDest(1)
		}
	case isa.Branch:
		in.Taken = g.rnd.chance(op.TakenProb)
		if op.DepLoad && g.lastLoadDest.Valid() {
			in.Src1 = g.lastLoadDest
		}
		skipTo := g.slot + 1 + op.SkipLen
		in.Target = k.pcBase + uint64(skipTo)*isa.InstBytes
		if in.Taken {
			g.slot = skipTo
			g.pushDest(isa.NoReg)
			return
		}
	case isa.Nop:
		// nothing
	default:
		in.Dest = g.allocDest(op.Class.IsFp())
	}

	g.pushDest(in.Dest)
	g.slot++
}

// NextBlock fills dst with the next len(dst) correct-path instructions —
// the batch face of Next (see BlockSource). One NextBlock call replaces
// len(dst) virtual dispatches through the Source interface with direct
// calls on the concrete generator, and lets the consumer synthesise
// straight into its own buffer. The walk state afterwards is exactly that
// of len(dst) consecutive Next calls, so block and scalar reads of the
// same generator interleave freely.
func (g *Generator) NextBlock(dst []isa.Inst) {
	for i := range dst {
		g.Next(&dst[i])
	}
}

// wireSrcs resolves the Dep distances against the destination ring.
func (g *Generator) wireSrcs(in *isa.Inst, op Op) {
	if op.Dep1 > 0 {
		in.Src1 = g.recentDest(op.Dep1)
	}
	if op.Dep2 > 0 {
		in.Src2 = g.recentDest(op.Dep2)
	}
}

// recentDest returns the destination register written d dynamic
// instructions ago, or NoReg if that instruction had none.
func (g *Generator) recentDest(d int) isa.Reg {
	if d <= 0 || d > depRingSize {
		return isa.NoReg
	}
	return g.destRing[(g.ringPos-d+depRingSize*2)%depRingSize]
}

func (g *Generator) pushDest(r isa.Reg) {
	g.destRing[g.ringPos%depRingSize] = r
	g.ringPos = (g.ringPos + 1) % depRingSize
}

// allocDest hands out destination registers round-robin from the middle of
// each file (r8..r23 / f8..f23), keeping low and high registers free for
// generator-internal uses.
func (g *Generator) allocDest(fp bool) isa.Reg {
	if fp {
		r := isa.FirstFpReg + isa.Reg(8+g.nextFp)
		g.nextFp = (g.nextFp + 1) % 16
		return r
	}
	r := isa.Reg(8 + g.nextInt)
	g.nextInt = (g.nextInt + 1) % 16
	return r
}

// next produces the next address of a stream.
func (s *streamState) next() uint64 {
	region := s.spec.Region
	if region < CacheLine {
		region = CacheLine
	}
	switch s.spec.Pattern {
	case Seq, Strided:
		stride := s.spec.Stride
		if stride == 0 {
			stride = 8
			if s.spec.Pattern == Strided {
				stride = 4 * CacheLine
			}
		}
		a := s.base + s.cursor
		s.cursor += stride
		if s.cursor >= region {
			s.cursor = 0
		}
		return a
	case Chase, Rand:
		line := s.rnd.next64() % (region / CacheLine)
		return s.base + line*CacheLine
	}
	return s.base
}

// WrongPath fills in with a plausible wrong-path instruction at pc.
// Wrong-path streams mix ALU work with scattered loads, so mispredicted
// paths pollute (and sometimes usefully prefetch) the caches, as on real
// hardware. The instructions are marked WrongPath and use the scratch
// registers r24..r31/f24..f31 so they never alias correct-path
// dependences.
func (g *Generator) WrongPath(in *isa.Inst, pc uint64) {
	g.wp.wrongPath(in, pc)
}

// WrongPathBlock fills dst with len(dst) consecutive wrong-path
// instructions starting at pc — the batch face of WrongPath (see
// BlockSource). The synthesiser's RNG is consumed in exactly the scalar
// order, so callers must only batch instructions that will all be fetched.
func (g *Generator) WrongPathBlock(dst []isa.Inst, pc uint64) {
	g.wp.wrongPathBlock(dst, pc)
}

// WrongPathParams exposes the wrong-path synthesiser parameters for trace
// recording (see WriteTrace).
func (g *Generator) WrongPathParams() (seed, base uint64) { return g.wp.params() }
