package core

// Runahead machinery: mode triggers (early-start countdown timer and
// full-ROB stall), PRE-style lean dispatch via the SST, the PRDQ register
// recycling, runahead branch handling, the two exit styles (PRE resume vs
// RAR flush), and the Weaver-style Flushing scheme.

// minTRInterval is traditional runahead's short-interval filter: TR skips
// runahead when the blocking load is about to return. The paper expresses
// this as "issued to the memory hierarchy less than 250 cycles before the
// stall"; with this pipeline's issue timing that test is almost never true
// even for fresh misses, so we implement the rule's intent directly — the
// remaining latency must be worth the entry/exit overhead.
const minTRInterval = 40

// runaheadLoadCutoff separates runahead loads that return data usefully
// fast (L1/L2 hits — their values feed further slice execution, e.g. the
// next hop of a pointer chase) from long-latency ones, which pseudo-retire
// as fire-and-forget prefetches with an INV destination.
const runaheadLoadCutoff = 20

// longLatWait classifies a load whose data is at least this many cycles
// away as long-latency for trigger purposes, even when it merged with an
// in-flight fill rather than missing the LLC itself.
const longLatWait = 60

// modeStage evaluates mode transitions once per cycle: runahead exit when
// the blocking load has returned, runahead entry per the scheme's trigger,
// or a FLUSH-scheme pipeline flush.
func (c *Core) modeStage() {
	if c.mode == modeRunahead {
		c.drainPRDQ()
		if c.arena.at(c.blocking).doneAt <= c.cycle {
			c.exitRunahead()
			c.progress++
		}
		return
	}

	head := c.robHeadUop()
	if head == nil || !head.isLoad() || head.state != uopIssued || !head.memIssued {
		return
	}
	blockedFor := c.cycle - c.headSince
	timerFired := blockedFor >= c.cfg.RunaheadTimer

	if c.scheme.FlushAtEntry {
		// Weaver-style Flushing: flush when a long-latency memory access
		// blocks commit at the head of the ROB; the pipeline refills when
		// the access returns (§V). The trigger is the LLC's miss signal,
		// so — unlike RAR's countdown timer — Flushing does not cover
		// long waits on fills already in flight (e.g. while the window
		// rebuilds after a flush): that state stays exposed, which is
		// one reason RAR surpasses Flushing in reliability (§V-B).
		if timerFired && head.llcMiss && head.seq != c.lastFlushSeq {
			c.doFlush(c.rob[c.robHead])
		}
		return
	}
	if !c.scheme.Runahead {
		return
	}

	if c.scheme.Early {
		// Pure countdown-timer trigger (§III-D): any load that has
		// blocked the head for RunaheadTimer cycles enters runahead —
		// LLC misses, but also long waits on lines whose fills are still
		// in flight (e.g. right after a flush-exit refetch). Covering
		// those waits is what keeps the back-end non-vulnerable for the
		// whole memory shadow.
		if timerFired {
			c.enterRunahead(c.rob[c.robHead])
		}
		return
	}
	// Late trigger: a full-ROB stall with a long-latency load at the head.
	if c.robCount == c.cfg.ROB && head.longLat {
		if c.scheme.IssueWindow && head.doneAt <= c.cycle+minTRInterval {
			return
		}
		c.enterRunahead(c.rob[c.robHead])
	}
}

// modeNextEvent returns the earliest future cycle at which modeStage can
// change anything, given the pipeline state frozen as it is now, or
// noEvent when no mode transition is pending. It is the runahead/flush
// half of the stall fast-forward's nextEventCycle (ff.go) and mirrors
// modeStage's trigger conditions exactly:
//
//   - In runahead mode, drainPRDQ makes progress the next cycle whenever
//     the PRDQ head has already pseudo-retired, and the mode exits when
//     the blocking load's data returns.
//   - In normal mode, the countdown-timer triggers (RAR/PRE early start,
//     FLUSH's long-latency detection) expire RunaheadTimer cycles after the
//     countdown base: headSince, or the next cycle when the head changed
//     during this cycle and tickBlocked has not yet restarted the timer.
//   - The late (full-ROB) trigger reads only current state. Its inputs can
//     have become true after this cycle's modeStage ran (issue and dispatch
//     execute later in the cycle), so when they hold now the trigger fires
//     next cycle; when they don't, they only change at other pipeline
//     events.
//
//rarlint:pure
func (c *Core) modeNextEvent(head *uop) uint64 {
	if c.mode == modeRunahead {
		if c.prdqLen > 0 {
			if st := c.arena.at(c.prdq[0]).state; st == uopCompleted || st == uopDead {
				return c.cycle + 1
			}
		}
		return c.arena.at(c.blocking).doneAt
	}
	if head == nil || !head.isLoad() || head.state != uopIssued || !head.memIssued {
		return noEvent
	}
	base := c.headSince
	if head.seq != c.headSeq {
		base = c.cycle + 1 // countdown restarts at the next tickBlocked
	}
	timerAt := base + c.cfg.RunaheadTimer
	if c.scheme.FlushAtEntry {
		if head.llcMiss && head.seq != c.lastFlushSeq {
			return timerAt
		}
		return noEvent
	}
	if !c.scheme.Runahead {
		return noEvent
	}
	if c.scheme.Early {
		return timerAt
	}
	if c.robCount == c.cfg.ROB && head.longLat {
		if c.scheme.IssueWindow && head.doneAt <= c.cycle+minTRInterval {
			return noEvent // short-interval filter: stays filtered as cycle grows
		}
		return c.cycle + 1
	}
	return noEvent
}

// enterRunahead checkpoints the machine and switches to runahead mode,
// with the load in slot b blocking the ROB head. The ROB is frozen:
// nothing commits and nothing new is allocated in it.
func (c *Core) enterRunahead(b uopRef) {
	c.s.RunaheadEntries++
	c.progress++
	c.mode = modeRunahead
	c.blocking = b
	blocking := c.arena.at(b)

	// Dependents of the blocking load are INV: they cannot produce values
	// during runahead and are dropped at dispatch.
	if blocking.dest >= 0 {
		c.regs.inv[blocking.dest] = true
	}

	c.chk.rat = c.regs.snapshotRAT()
	c.chk.bpSnap = c.bp.Snapshot()

	// Entry is cheap in PRE (and therefore in RAR): the front-end pipe is
	// NOT flushed — in-flight instructions simply continue and are
	// dispatched in runahead mode. The exit rewind point is the oldest
	// on-path instruction still in the pipe (it will be consumed
	// speculatively and must be re-fetched after exit), or the current
	// cursor if the pipe holds none.
	resume := c.stream.cursor()
	onPath := false
	for i := 0; i < c.frontQ.len(); i++ {
		u := c.arena.at(c.frontQ.at(i))
		if !u.inst.WrongPath {
			onPath = true
			if u.streamIdx < resume {
				resume = u.streamIdx
			}
		}
	}
	c.chk.resumeCursor = resume

	// Wrong-path handling: if an unresolved mispredicted branch is still
	// in the front-end pipe, it will be consumed by runahead and nothing
	// in the back-end will ever resolve it — but the exit rewind point is
	// at or before that branch, so the exit refetch repairs the path.
	// Only when the entire wrong path has already dispatched into the ROB
	// must the wrong-path state be restored at exit (the in-ROB branch
	// resolves and recovers normally).
	c.chk.wrongPath = c.wrongPath && !onPath
	c.chk.wpPC = c.wpPC
	c.chk.wpSynthetic = c.wpSynthetic

	c.raDiverged = c.wrongPath
	c.wrongPath = false
}

// runaheadDispatchStalled reports whether u cannot enter the PRDQ in
// runahead mode: the PRDQ is full, or u needs a destination register and
// none is free. Both are freed only by pipeline events (a PRDQ drain, a
// completion, the runahead exit), so the stall fast-forward (ff.go) treats
// such a head as quiescent, as dispatchStalled lets it in normal mode.
//
//rarlint:pure
func (c *Core) runaheadDispatchStalled(u *uop) bool {
	in := &u.inst
	return c.prdqLen >= c.cfg.PRDQ ||
		(in.HasDest() && !c.regs.canAlloc(in.Dest.IsFp()))
}

// dispatchRunahead handles dispatch while in runahead mode: every
// instruction is renamed (PRE renames the full stream), but only useful
// instructions — loads and, in lean mode, SST slice hits; everything
// except stores in non-lean mode — are sent to the issue queue. INV
// instructions are dropped immediately.
func (c *Core) dispatchRunahead(r uopRef) bool {
	u := c.arena.at(r)
	if c.runaheadDispatchStalled(u) {
		return false
	}
	in := &u.inst
	u.runahead = true
	u.src[0] = c.regs.lookup(in.Src1)
	u.src[1] = c.regs.lookup(in.Src2)
	if in.HasDest() {
		u.dest, u.prevDest = c.regs.rename(in.Dest)
	}
	u.dispatchedAt = c.cycle
	c.s.TotalDispatched++
	c.prdq[c.prdqLen] = r
	c.prdqLen++

	execute := false
	switch {
	case in.IsNop() || in.IsStore():
		// Stores do not execute in runahead mode (no memory side effects).
	case in.IsLoad():
		execute = true
	case in.IsBranch():
		execute = !c.scheme.Lean // TR resolves branches to stay on path
	default:
		if c.scheme.Lean {
			execute = c.sstT.contains(in.PC)
		} else {
			execute = true
		}
	}

	// INV poisoning: a source that depends on the blocking load (or on a
	// dropped runahead instruction) makes this instruction INV.
	inv := false
	for _, p := range u.src {
		if p >= 0 && c.regs.inv[p] {
			inv = true
			break
		}
	}

	if !execute || inv {
		c.dropRunahead(u, inv)
		return true
	}
	if c.iqLive >= c.cfg.IQ {
		// Undo the PRDQ/rename allocation and stall dispatch.
		c.prdqLen--
		if u.dest >= 0 {
			c.regs.rat[in.Dest] = u.prevDest
			c.regs.free(u.dest)
			u.dest, u.prevDest = -1, -1
		}
		return false
	}
	c.enqueueIQ(r)
	return true
}

// dropRunahead retires a runahead uop without executing it. Its
// destination (if any) is marked ready-but-INV so consumers are dropped
// too rather than waiting forever.
func (c *Core) dropRunahead(u *uop, inv bool) {
	u.state = uopCompleted
	u.inv = inv
	u.doneAt = c.cycle
	if u.dest >= 0 {
		c.markReady(u.dest)
		c.regs.inv[u.dest] = true
	}
	c.s.RunaheadDropped++
}

// drainPRDQ retires completed runahead uops from the head of the precise
// register deallocation queue, recycling their destination registers in
// program order — PRE's mechanism for running long runahead intervals with
// a bounded register file. Registers release as soon as their producer
// pseudo-retires: at a full-window stall only a handful of registers are
// free, so aggressive recycling is what lets runahead run hundreds of
// instructions deep (the PRE paper's key enabler). A recycled register may
// still be named by the runahead RAT; the subsequent reallocation simply
// re-poisons it, which costs at most a mistimed prefetch.
func (c *Core) drainPRDQ() {
	n := 0
	for ; n < c.prdqLen; n++ {
		r := c.prdq[n]
		u := c.arena.at(r)
		if u.state != uopCompleted && u.state != uopDead {
			break
		}
		if u.dest >= 0 {
			if u.inst.HasDest() && c.regs.rat[u.inst.Dest] == u.dest {
				// Still architecturally live in runahead: keep the INV
				// poison visible to future consumers by leaving the
				// ready/inv bits in place but recycle the storage.
				c.regs.inv[u.dest] = c.regs.inv[u.dest] || u.inv
			}
			c.regs.free(u.dest)
			u.dest = -1
		}
		c.release(r)
	}
	if n > 0 {
		c.progress++
		// The PRDQ is bounded by cfg.PRDQ entries, so compacting it is
		// cheap.
		c.prdqLen = copy(c.prdq, c.prdq[n:c.prdqLen])
	}
}

// redirectRunahead handles a mispredicted branch resolved during runahead
// (non-lean mode): squash younger runahead work and steer runahead fetch
// back onto the stream.
func (c *Core) redirectRunahead(u *uop) {
	c.squashRunaheadYounger(u.seq)
	c.raDiverged = false
	c.stream.rewind(u.streamIdx + 1)
	c.bp.Restore(c.bpSnapArena[u.bpSnap], true, u.inst.PC, u.inst.Taken)
	if u.inst.Taken {
		c.btb.Insert(u.inst.PC, u.inst.Target)
	}
	if c.fetchStallUntil < c.cycle+1 {
		c.fetchStallUntil = c.cycle + 1
	}
}

// squashRunaheadYounger rolls back runahead uops younger than seqB.
func (c *Core) squashRunaheadYounger(seqB uint64) {
	for c.prdqLen > 0 {
		r := c.prdq[c.prdqLen-1]
		u := c.arena.at(r)
		if u.seq <= seqB {
			break
		}
		if u.state == uopDispatched {
			c.iqLive--
		}
		if u.dest >= 0 {
			c.regs.rat[u.inst.Dest] = u.prevDest
			c.regs.free(u.dest)
			u.dest = -1
		}
		u.state = uopDead
		c.prdqLen--
		c.release(r)
	}
	c.clearFrontQ()
}

// discardRunahead throws away all remaining runahead state: restores the
// RAT checkpoint, releases every runahead register, and removes runahead
// uops from the pipeline.
func (c *Core) discardRunahead() {
	c.regs.restoreRAT(c.chk.rat)
	for _, r := range c.prdq[:c.prdqLen] {
		u := c.arena.at(r)
		if u.state == uopDispatched {
			c.iqLive--
		}
		u.state = uopDead
		if u.dest >= 0 {
			c.regs.free(u.dest)
			u.dest = -1
		}
		c.release(r)
	}
	c.prdqLen = 0
	c.clearFrontQ()
	c.raDiverged = false
}

// abortRunahead cancels runahead mode without the scheme's exit actions —
// used when a pre-runahead branch misprediction resolves mid-runahead and
// normal-mode recovery must proceed.
func (c *Core) abortRunahead() {
	c.discardRunahead()
	c.mode = modeNormal
	c.blocking = noUop
	c.wrongPath = c.chk.wrongPath
	c.wpPC = c.chk.wpPC
	c.wpSynthetic = c.chk.wpSynthetic
	// The subsequent recovery rewinds stream and history itself.
}

// exitRunahead returns to normal mode when the blocking load's data has
// arrived. PRE resumes with the frozen ROB intact; flush-at-exit schemes
// (TR, RAR) squash the entire back-end — rendering all state accumulated
// during the runahead interval un-ACE — and refetch from the blocking load.
func (c *Core) exitRunahead() {
	blocking := c.arena.at(c.blocking)
	c.blocking = noUop
	c.mode = modeNormal

	c.discardRunahead()

	if c.scheme.FlushAtExit {
		// Flush the whole back-end, including the blocking load: its
		// first incarnation never commits (un-ACE) and the refetch hits
		// in the now-filled cache. The squash releases the load's slot,
		// so its stream index is read first.
		resume := blocking.streamIdx
		c.squashYounger(blocking.seq - 1)
		c.stream.rewind(resume)
		c.bp.Restore(c.chk.bpSnap, false, 0, false)
		c.clearWrongPath()
		if c.fetchStallUntil < c.cycle+2 {
			c.fetchStallUntil = c.cycle + 2 // flush penalty
		}
		return
	}

	// PRE-style resume: the frozen ROB remains valid; fetch restarts
	// where it stopped at entry.
	c.stream.rewind(c.chk.resumeCursor)
	c.bp.Restore(c.chk.bpSnap, false, 0, false)
	c.wrongPath = c.chk.wrongPath
	c.wpPC = c.chk.wpPC
	c.wpSynthetic = c.chk.wpSynthetic
	if c.fetchStallUntil < c.cycle+1 {
		c.fetchStallUntil = c.cycle + 1
	}
}

// doFlush implements the FLUSH scheme: as soon as a load's LLC miss is
// detected, squash everything younger than the load (in slot r) and stall
// fetch until the data returns (Weaver et al.). Flushing this early is
// what destroys MLP: instructions past the load never get to issue their
// own misses.
func (c *Core) doFlush(r uopRef) {
	load := c.arena.at(r)
	c.s.Flushes++
	c.progress++
	c.lastFlushSeq = load.seq
	c.squashYounger(load.seq)
	c.stream.rewind(load.streamIdx + 1)
	c.clearWrongPath()
	// Resume fetch when the blocking access returns (overwrite, not max:
	// a later flush from an older load supersedes a younger one's
	// deadline).
	c.fetchStallUntil = load.doneAt + 1
}
