package core

import (
	"rarsim/internal/branch"
	"rarsim/internal/isa"
)

// hammockSpan is the longest forward branch (in bytes) treated as a
// hammock whose wrong path reconverges with the correct path. Mispredicted
// hammocks fetch the other side of the diamond and then rejoin the real
// instruction stream — which is why wrong-path execution (and runahead
// past a mispredicted branch) still prefetches usefully on real machines.
// Backward branches (loop back-edges) and long jumps do not reconverge
// quickly; their wrong paths are synthesised.
const hammockSpan = 16 * isa.InstBytes

// frontRing is the front-end pipe: a fixed-capacity FIFO of the in-flight
// decoded uops between fetch and dispatch, named by their arena slots. It
// replaces an append/copy-down slice — the old dispatch pop copied the
// whole queue down every cycle the core dispatched, which on busy cycles
// was pure overhead. The ring is
// sized to a power of two at construction so indexing is a mask, and its
// capacity (frontQCap plus one full fetch group) is a hard bound: fetch
// checks the soft cap before a group, so occupancy never exceeds
// frontQCap-1+Width.
type frontRing struct {
	buf  []uopRef
	head int
	n    int
}

func newFrontRing(capacity int) frontRing {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return frontRing{buf: make([]uopRef, size)}
}

//rarlint:pure
func (r *frontRing) len() int { return r.n }

// at returns the i-th oldest entry (0 = dispatch head).
//
//rarlint:pure
//rarlint:hot
func (r *frontRing) at(i int) uopRef { return r.buf[(r.head+i)&(len(r.buf)-1)] }

//rarlint:hot
func (r *frontRing) push(u uopRef) {
	if r.n == len(r.buf) {
		panic("core: front-end ring overflow")
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = u
	r.n++
}

// popFront removes and returns the dispatch head.
//
//rarlint:hot
func (r *frontRing) popFront() uopRef {
	u := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return u
}

// fetchStage models the front-end: up to Width instructions per cycle from
// the correct-path stream (or the wrong path after a misprediction),
// branch prediction with speculative history, BTB re-steers, and the L1I.
// Fetched uops traverse the FrontEndDepth-stage pipe before becoming
// eligible for dispatch.
func (c *Core) fetchStage() {
	if c.cycle < c.fetchStallUntil {
		return
	}
	// The front-end pipe has finite capacity: when dispatch stalls, fetch
	// backs up rather than running arbitrarily far ahead.
	if c.frontQ.len() >= c.frontQCap() {
		return
	}
	// Off-path status is constant across a fetch group: fetch only goes
	// off-path via startWrongPath, which ends the group, and only recovery
	// outside fetch brings it back — so the whole group takes one side.
	if c.offPath() {
		c.fetchWrongPathGroup()
		return
	}

	// Model the L1I for on-path fetch. Synthetic kernels are tiny, so
	// this virtually always hits after warmup; a miss stalls fetch until
	// the line arrives.
	pc := c.stream.peek().PC
	if avail := c.hier.FetchAccess(pc, c.cycle); avail > c.cycle+c.cfg.Mem.L1ILat {
		c.fetchStallUntil = avail
		return
	}

	c.progress++ // past the early-outs, the group always fetches
	for n := 0; n < c.cfg.Width; n++ {
		in, idx := c.stream.next()
		r, u := c.newUop()
		u.inst = in
		u.streamIdx = idx
		u.frontReadyAt = c.cycle + uint64(c.cfg.FrontEndDepth)
		c.s.TotalFetched++

		if !in.IsBranch() {
			c.frontQ.push(r)
			continue
		}

		// Predict the branch. Only a mispredicted branch is ever rewound
		// (recovery restores exactly its pre-shift history), and the
		// simulator knows the true outcome here — so the 72-byte
		// Snapshot copy is taken just for mispredicts instead of every
		// branch. The snapshot state is identical either way: it is
		// captured before the predicted outcome shifts into the history.
		pred, info := c.bp.PredictNoShift(in.PC)
		u.predTaken, u.bpInfo = pred, info
		if pred != in.Taken {
			u.bpSnap = c.allocBpSnap()
			c.bpSnapArena[u.bpSnap] = c.bp.Snapshot()
		}
		c.bp.ShiftHistory(pred, in.PC)
		c.frontQ.push(r)

		if pred != in.Taken {
			c.startWrongPath(&in, pred)
			break // redirect ends the fetch group
		}
		if pred {
			// Correctly predicted taken: a BTB miss costs a decode-time
			// re-steer bubble; either way the taken branch ends the group.
			if _, hit := c.btb.Lookup(in.PC); !hit {
				c.fetchStallUntil = c.cycle + 2
			}
			break
		}
	}
}

// frontQCap is the front-end pipe capacity at which fetch backs up. The
// stall fast-forward relies on the same bound to decide that fetch cannot
// act until dispatch drains the pipe.
//
//rarlint:pure
func (c *Core) frontQCap() int {
	return c.cfg.Width * (c.cfg.FrontEndDepth + 2)
}

// offPath reports whether fetch is currently down a mispredicted path.
func (c *Core) offPath() bool {
	return c.wrongPath || (c.mode == modeRunahead && c.raDiverged)
}

// startWrongPath steers fetch onto the predicted — wrong — path of the
// branch and decides how that path evolves:
//
//   - Forward hammock, predicted taken (actual not-taken): the wrong path
//     starts at the target, which the real stream reaches after the
//     hammock body — skip ahead in the stream and keep fetching real
//     future instructions, marked wrong-path.
//   - Forward hammock, predicted not-taken (actual taken): the wrong path
//     is the skipped hammock body — synthesise those few instructions,
//     then reconverge onto the stream.
//   - Anything else (back-edges, long jumps): the wrong path does not
//     reconverge; synthesise indefinitely until the branch resolves.
func (c *Core) startWrongPath(in *isa.Inst, predTaken bool) {
	if c.mode == modeRunahead {
		c.raDiverged = true
	} else {
		c.wrongPath = true
	}

	forward := in.Target > in.PC && in.Target-in.PC <= hammockSpan
	switch {
	case predTaken && forward:
		// Skip stream entries up to the reconvergence point (the
		// branch target). They are re-fetched after recovery rewinds.
		start := c.stream.cursor()
		found := false
		for k := 0; k < hammockSpan/isa.InstBytes+1; k++ {
			if c.stream.peek().PC == in.Target {
				found = true
				break
			}
			c.stream.next()
		}
		if found {
			c.wpSynthetic = 0
			return
		}
		c.stream.rewind(start)
		c.wpSynthetic = -1
		c.wpPC = in.Target
	case !predTaken && forward:
		// Fetch the hammock body the stream skipped, then reconverge.
		c.wpSynthetic = int((in.Target - in.FallThrough()) / isa.InstBytes)
		c.wpPC = in.FallThrough()
	default:
		c.wpSynthetic = -1
		c.wpPC = in.Target
		if !predTaken {
			c.wpPC = in.FallThrough()
		}
	}
}

// fetchWrongPathGroup fetches one full group while off-path: synthesised
// instructions while the divergent stretch lasts, then — for reconvergent
// hammocks — real future instructions marked wrong-path, whose loads
// prefetch exactly like on a real machine.
//
// Synthesised stretches are generated in batches: the whole remaining
// run of synthetic slots in the group (clamped to a bounded hammock
// body's remaining length) goes through one WrongPathBlock call instead
// of one virtual dispatch each. The batch covers exactly the
// instructions actually fetched this cycle — never more — because the
// synthesiser's RNG is shared across wrong-path episodes, so
// over-generating would perturb later episodes relative to the scalar
// path.
//
//rarlint:hot
func (c *Core) fetchWrongPathGroup() {
	c.progress++
	w := c.cfg.Width
	for n := 0; n < w; {
		if c.wpSynthetic == 0 {
			// Reconverged onto the stream: fetch real future instructions
			// marked wrong-path.
			in, idx := c.stream.next()
			in.WrongPath = true
			r, u := c.newUop()
			u.inst = in
			u.streamIdx = idx
			u.frontReadyAt = c.cycle + uint64(c.cfg.FrontEndDepth)
			c.frontQ.push(r)
			c.s.WrongPathFetched++
			c.s.TotalFetched++
			n++
			continue
		}
		k := w - n
		if c.wpSynthetic > 0 && k > c.wpSynthetic {
			k = c.wpSynthetic
		}
		if c.genBlk != nil {
			//rarlint:allow hotalloc synthesiser dispatch is an interface call; the generators are allocation-free
			c.genBlk.WrongPathBlock(c.wpScratch[:k], c.wpPC)
		} else {
			for i := 0; i < k; i++ {
				//rarlint:allow hotalloc generator dispatch is an interface call; the generators are allocation-free
				c.gen.WrongPath(&c.wpScratch[i], c.wpPC+uint64(i)*isa.InstBytes)
			}
		}
		for i := 0; i < k; i++ {
			r, u := c.newUop()
			u.inst = c.wpScratch[i]
			u.frontReadyAt = c.cycle + uint64(c.cfg.FrontEndDepth)
			c.frontQ.push(r)
			c.s.WrongPathFetched++
			c.s.TotalFetched++
		}
		c.wpPC += uint64(k) * isa.InstBytes
		if c.wpSynthetic > 0 {
			c.wpSynthetic -= k
		}
		n += k
	}
}

// clearWrongPath resets all off-path fetch state (recovery, flush,
// runahead exit).
func (c *Core) clearWrongPath() {
	c.wrongPath = false
	c.wpSynthetic = 0
}

// newUop takes a fresh uop from the arena with operand fields initialised
// to "absent", and returns its slot and the uop.
func (c *Core) newUop() (uopRef, *uop) {
	r := c.arena.get()
	u := c.arena.at(r)
	c.seq++
	u.seq = c.seq
	u.src = [2]int16{-1, -1}
	u.dest, u.prevDest = -1, -1
	u.bpSnap = -1
	return r, u
}

// allocBpSnap reserves a snapshot-arena slot for a mispredicted branch.
// The free list grows with the snapshot arena, so release always has
// room to return a slot.
//
//rarlint:hot
func (c *Core) allocBpSnap() int32 {
	if c.bpSnapFreeN > 0 {
		c.bpSnapFreeN--
		return c.bpSnapFree[c.bpSnapFreeN]
	}
	c.bpSnapArena = append(c.bpSnapArena, branch.Snapshot{})
	c.bpSnapFree = append(c.bpSnapFree, 0)
	return int32(len(c.bpSnapArena) - 1)
}

// clearFrontQ squashes every instruction still in the front-end pipe.
func (c *Core) clearFrontQ() {
	for c.frontQ.len() > 0 {
		r := c.frontQ.popFront()
		c.arena.at(r).state = uopDead
		c.release(r)
	}
}
