package core

import (
	"fmt"

	"rarsim/internal/ace"
	"rarsim/internal/isa"
	"rarsim/internal/mem"
)

// dispatchStage moves up to Width uops from the front-end pipe into the
// back-end. In normal mode this allocates ROB/IQ/LQ/SQ entries and renames;
// in runahead mode dispatch is handled by dispatchRunahead (no ROB).
func (c *Core) dispatchStage() {
	for n := 0; n < c.cfg.Width && c.frontQ.len() > 0; n++ {
		r := c.frontQ.at(0)
		if c.arena.at(r).frontReadyAt > c.cycle {
			break
		}
		var ok bool
		if c.mode == modeNormal {
			ok = c.dispatchNormal(r)
		} else {
			ok = c.dispatchRunahead(r)
		}
		if !ok {
			break // structural stall: retry next cycle, in order
		}
		c.frontQ.popFront()
		c.progress++
	}
}

// dispatchStalled reports whether u cannot dispatch in normal mode for a
// structural reason (ROB/IQ/LQ/SQ/registers full). Every resource it
// consults is freed only by a pipeline event (commit, completion, squash),
// which is what lets the stall fast-forward (ff.go) treat a stalled
// dispatch head as quiescent until the next event.
func (c *Core) dispatchStalled(u *uop) bool {
	in := &u.inst
	return c.robCount == c.cfg.ROB ||
		(!in.IsNop() && c.iqLive >= c.cfg.IQ) ||
		(in.IsLoad() && c.lqCount >= c.cfg.LQ) ||
		(in.IsStore() && c.sqLen >= c.cfg.SQ) ||
		(in.HasDest() && !c.regs.canAlloc(in.Dest.IsFp()))
}

// dispatchNormal allocates back-end resources for uop r and renames it.
// Returns false on a structural stall (ROB/IQ/LQ/SQ/registers full).
func (c *Core) dispatchNormal(r uopRef) bool {
	u := c.arena.at(r)
	if c.dispatchStalled(u) {
		return false
	}
	in := &u.inst

	u.src[0] = c.regs.lookup(in.Src1)
	u.src[1] = c.regs.lookup(in.Src2)
	if in.HasDest() {
		u.dest, u.prevDest = c.regs.rename(in.Dest)
	}

	// Record dependence edges for SST slice extraction (correct path only).
	if !in.WrongPath {
		var s1, s2 uint64
		if in.Src1.Valid() {
			s1 = c.lastWriter[in.Src1]
		}
		if in.Src2.Valid() {
			s2 = c.lastWriter[in.Src2]
		}
		c.prod.record(in.PC, s1, s2)
		if in.HasDest() {
			c.lastWriter[in.Dest] = in.PC
		}
	}

	u.dispatchedAt = c.cycle
	u.hbAtDispatch, u.fsAtDispatch = c.ledger.Cum()
	c.s.TotalDispatched++
	c.rob[c.robSlot(c.robCount)] = r
	c.robCount++

	if in.IsNop() {
		u.state = uopCompleted
		u.doneAt = c.cycle
		return true
	}
	if in.IsLoad() {
		c.lqCount++
		u.inLQ = true
	}
	if in.IsStore() {
		c.sqList[c.sqLen] = r
		c.sqLen++
		u.inSQ = true
	}
	c.enqueueIQ(r)
	return true
}

// poolOf maps an instruction class to its functional-unit pool. Loads,
// stores and branches use the integer-add pool (address generation /
// resolution).
func poolOf(class isa.Class) int {
	switch class {
	case isa.IntMult:
		return fuIntMult
	case isa.IntDiv:
		return fuIntDiv
	case isa.FpAdd:
		return fuFpAdd
	case isa.FpMult:
		return fuFpMult
	case isa.FpDiv:
		return fuFpDiv
	default:
		return fuIntAdd
	}
}

// fuWidth returns the ACE bit width of the unit executing the class.
func (c *Core) fuWidth(class isa.Class) uint64 {
	if class.IsFp() {
		return uint64(c.bits.FpFU)
	}
	return uint64(c.bits.IntFU)
}

func (c *Core) srcsReady(u *uop) bool {
	for _, p := range u.src {
		if p >= 0 && !c.regs.ready[p] {
			return false
		}
	}
	return true
}

// waiter is one issue-queue wakeup registration. The seq guard makes stale
// entries inert: arena slots are recycled, so a squashed-and-recycled uop
// named by an old registration carries a different seq and is skipped.
type waiter struct {
	seq uint64
	r   uopRef
}

// enqueueIQ inserts u into the issue queue, registering its not-yet-ready
// sources for event-driven wakeup. u.notReady is a one-sided filter:
// notReady > 0 guarantees srcsReady is false, because a ready bit flips
// true only inside markReady, and the first markReady(p) after a
// registration on p decrements it. A registration survives even PRE's
// register recycling (drainPRDQ frees a dead producer's register and a
// later rename re-allocates it while the consumer still names it): the
// consumer then waits for the new producer, whose markReady performs the
// wake — exactly the poll-based semantics this filter replaces.
// notReady == 0 does NOT guarantee readiness: that same recycling can
// re-poison a source behind the filter's back (alloc clears the ready bit
// without touching registrations already woken), so issueStage confirms
// with srcsReady before issuing. The filter takes the srcsReady poll off
// the queue's blocked majority; the confirm only runs for issue candidates.
func (c *Core) enqueueIQ(r uopRef) {
	u := c.arena.at(r)
	u.state = uopDispatched
	u.notReady = 0
	for _, p := range u.src {
		if p >= 0 && !c.regs.ready[p] {
			u.notReady++
			if int(c.waitLen[p]) == c.waitCap {
				c.makeWaiterRoom(p)
			}
			c.waitBuf[int(p)*c.waitCap+int(c.waitLen[p])] = waiter{u.seq, r}
			c.waitLen[p]++
		}
	}
	c.iqLive++
	if u.notReady == 0 {
		c.pushReady(r, u.seq)
	}
}

// waiting reports whether w still names a uop waiting in the issue queue:
// the incarnation that registered w, not yet issued or squashed. Every
// other entry of a wakeup list, the ready list or the completion wheel is
// stale.
func (c *Core) waiting(w waiter) bool {
	u := c.arena.at(w.r)
	return u.seq == w.seq && u.state == uopDispatched
}

// makeWaiterRoom makes room in physical register p's full wakeup list.
// It first drops the list's stale entries, which markReady would skip: a
// register whose producers keep being squashed before they complete never
// reaches a markReady that would empty its list. Only a list still full
// after that doubles the stride of every list.
func (c *Core) makeWaiterRoom(p int16) {
	base, n := int(p)*c.waitCap, 0
	for _, w := range c.waitBuf[base : base+c.waitCap] {
		if c.waiting(w) {
			c.waitBuf[base+n] = w
			n++
		}
	}
	c.waitLen[p] = int32(n)
	if n == c.waitCap {
		c.waitBuf = growStrided(c.waitBuf, c.waitLen, c.waitCap)
		c.waitCap *= 2
	}
}

// growStrided returns buf, a table of len(lens) rows at the given stride
// whose row i holds lens[i] entries, re-laid out at twice the stride. The
// wakeup lists and the completion wheel call it the first time one of
// their rows would outgrow the stride.
func growStrided(buf []waiter, lens []int32, stride int) []waiter {
	grown := make([]waiter, 2*len(buf))
	for i, n := range lens {
		copy(grown[2*i*stride:], buf[i*stride:i*stride+int(n)])
	}
	return grown
}

// markReady publishes physical register p as ready and wakes the uops
// registered as waiting on it. Registrations from squashed consumers are
// inert (waiting rejects them); registrations from
// before a recycling of p are live and correct to wake (see enqueueIQ).
// A uop whose last unready source arrives becomes an issue candidate.
func (c *Core) markReady(p int16) {
	c.regs.ready[p] = true
	base := int(p) * c.waitCap
	for _, w := range c.waitBuf[base : base+int(c.waitLen[p])] {
		if u := c.arena.at(w.r); c.waiting(w) && u.notReady > 0 {
			u.notReady--
			if u.notReady == 0 {
				c.pushReady(w.r, w.seq)
			}
		}
	}
	c.waitLen[p] = 0
}

// pushReady inserts uop r, of age seq, into the ready list, keeping it
// sorted by seq so issue stays oldest-first. notReady never rises again
// once it reaches zero, so each uop incarnation is pushed exactly once —
// at enqueue when all sources are already ready, or at its final wakeup.
// Pushes are near-sorted already (wakeups follow dispatch order closely),
// so the insertion scan is almost always a plain append.
func (c *Core) pushReady(r uopRef, seq uint64) {
	i := c.readyLen
	c.readyLen++
	for i > 0 && c.readyList[i-1].seq > seq {
		c.readyList[i] = c.readyList[i-1]
		i--
	}
	c.readyList[i] = waiter{seq, r}
}

// iqEntry returns the uop in issue-queue slot i, or noUop when the slot is
// empty. The queue is implicit: its entries are the dispatched uops still
// waiting to issue, in seq order — the ROB's, then the PRDQ's (runahead
// dispatches behind a frozen ROB, so every PRDQ uop is younger).
func (c *Core) iqEntry(i int) uopRef {
	if i < 0 || i >= c.iqLive {
		return noUop
	}
	for k := 0; k < c.robCount; k++ {
		if r := c.rob[c.robSlot(k)]; c.arena.at(r).state == uopDispatched {
			if i == 0 {
				return r
			}
			i--
		}
	}
	for _, r := range c.prdq[:c.prdqLen] {
		if c.arena.at(r).state == uopDispatched {
			if i == 0 {
				return r
			}
			i--
		}
	}
	return noUop
}

// issueStage selects up to Width ready uops, oldest first, and starts them
// on functional units; loads and stores additionally access memory. Only
// the ready list is scanned — the blocked majority of the issue queue
// (notReady > 0) is never touched; it wakes event-driven via markReady.
func (c *Core) issueStage() {
	for i := range c.fuIssued {
		c.fuIssued[i] = 0
	}
	issued, kept := 0, 0
	for _, w := range c.readyList[:c.readyLen] {
		if !c.waiting(w) {
			continue // stale: issued earlier, squashed, or recycled
		}
		u := c.arena.at(w.r)
		if issued >= c.cfg.Width || u.retryAt > c.cycle ||
			!c.srcsReady(u) || !c.tryIssue(w.r) {
			c.readyList[kept] = w
			kept++
			continue
		}
		issued++
		c.iqLive--
	}
	c.readyLen = kept
	if issued > 0 {
		c.progress++
	}
}

// tryIssue attempts to start uop r this cycle. It returns false when no
// unit is free or the L1D is out of MSHRs.
func (c *Core) tryIssue(r uopRef) bool {
	u := c.arena.at(r)
	pool := poolOf(u.inst.Class)
	fu := &c.fuPools[pool]
	if fu.Pipelined {
		if c.fuIssued[pool] >= fu.Count {
			return false
		}
	} else if c.fuBusyTill[pool] > c.cycle {
		return false
	}

	switch {
	case u.isLoad():
		if fwd, ok := c.forwardFromStore(u); ok {
			u.doneAt = fwd
		} else {
			kind := mem.KindLoad
			switch {
			case u.inst.WrongPath:
				kind = mem.KindWrongPath
			case u.runahead:
				kind = mem.KindRunahead
			}
			res := c.hier.Access(u.inst.Addr, c.cycle+1, kind)
			if res.MSHRStall {
				u.retryAt = c.cycle + 4
				return false
			}
			u.doneAt = res.DoneAt
			u.llcMiss = res.LLCMiss
			// A load merging with an in-flight fill waits nearly as long
			// as a fresh miss; the MSHRs report it as an outstanding
			// long-latency access, so stall-based mechanisms treat it
			// like one.
			u.longLat = res.LLCMiss || res.DoneAt > c.cycle+longLatWait
			u.memIssued = true
			if u.runahead && res.DoneAt > c.cycle+runaheadLoadCutoff {
				// Fire-and-forget: a runahead load that misses does its
				// job the moment the prefetch is in flight. It
				// pseudo-retires immediately with a poisoned (INV)
				// destination rather than holding PRDQ/IQ resources for
				// the full memory latency — this is what lets runahead
				// run hundreds of instructions ahead.
				u.doneAt = c.cycle + 1
				u.inv = true
			}
			if res.LLCMiss && kind == mem.KindLoad && u.inst.PC != c.lastTrainedPC {
				trainSlice(c.sstT, c.prod, u.inst.PC, 4, 16)
				c.lastTrainedPC = u.inst.PC
			}
		}
	case u.isStore():
		u.doneAt = c.cycle + 1 // address generation; data written post-commit
	default:
		u.doneAt = c.cycle + fu.Latency
	}

	if fu.Pipelined {
		c.fuIssued[pool]++
	} else {
		c.fuBusyTill[pool] = u.doneAt
	}
	u.state = uopIssued
	u.issuedAt = c.cycle
	u.hbAtIssue, u.fsAtIssue = c.ledger.Cum()
	c.s.TotalIssued++
	c.scheduleCompletion(r)
	if u.runahead {
		c.s.RunaheadExecuted++
	}
	return true
}

// forwardFromStore checks the store queue for an older in-flight store to
// the same 8-byte block; a hit forwards in two cycles without touching the
// cache.
func (c *Core) forwardFromStore(u *uop) (doneAt uint64, ok bool) {
	block := u.inst.Addr >> 3
	for i := c.sqLen - 1; i >= 0; i-- {
		s := c.arena.at(c.sqList[i])
		if s.seq >= u.seq || s.state == uopDead {
			continue
		}
		if s.state == uopDispatched {
			continue // address not generated yet; no forwarding
		}
		if s.inst.Addr>>3 == block {
			return c.cycle + 2, true
		}
	}
	return 0, false
}

// completeStage retires finished executions: wakes dependents, resolves
// branches (including misprediction recovery), and marks uops completed.
//
// cwSize is the completion wheel's window in cycles: completions within
// cwSize cycles sit in their bucket, later ones (DRAM fills) wait in the
// overflow list. A power of two so the bucket index is a mask.
const cwSize = 256

// cwBucketCap is each bucket's initial capacity, the stride of Core.cwBuf.
const cwBucketCap = 32

// cwEntry is an overflow registration: doneAt is recorded at insertion so
// migration never has to dereference a possibly-recycled uop.
type cwEntry struct {
	seq    uint64
	doneAt uint64
	r      uopRef
}

// scheduleCompletion registers an issued uop's completion on the wheel.
// doneAt is always at least c.cycle+1 when issue succeeds, so the bucket
// the entry lands in is drained before the index can wrap.
func (c *Core) scheduleCompletion(r uopRef) {
	u := c.arena.at(r)
	d := u.doneAt
	if d <= c.cycle {
		// Defensive: the scan-based predecessor completed a same-cycle
		// doneAt on the next cycle's pass; pin the wheel to the same
		// schedule.
		d = c.cycle + 1
	}
	if d-c.cycle < cwSize {
		c.pushBucket(d&(cwSize-1), waiter{u.seq, r})
	} else {
		if c.cwOvLen == len(c.cwOverflow) {
			c.cwOverflow = append(c.cwOverflow, make([]cwEntry, len(c.cwOverflow))...)
		}
		c.cwOverflow[c.cwOvLen] = cwEntry{u.seq, d, r}
		c.cwOvLen++
		if d < c.cwOvMin {
			c.cwOvMin = d
		}
	}
	c.cwCount++
}

// pushBucket appends w to completion-wheel bucket i.
func (c *Core) pushBucket(i uint64, w waiter) {
	if int(c.cwLen[i]) == c.cwCap {
		c.cwBuf = growStrided(c.cwBuf, c.cwLen[:], c.cwCap)
		c.cwCap *= 2
	}
	c.cwBuf[int(i)*c.cwCap+int(c.cwLen[i])] = w
	c.cwLen[i]++
}

// migrateOverflow moves overflow completions that entered the wheel window
// into their buckets and recomputes the watermark. An entry due exactly
// now lands in this cycle's bucket, which completeStage drains right after
// — identical timing to the scan-based predecessor.
func (c *Core) migrateOverflow() {
	kept := 0
	min := noEvent
	for _, e := range c.cwOverflow[:c.cwOvLen] {
		if e.doneAt >= c.cycle+cwSize {
			c.cwOverflow[kept] = e
			kept++
			if e.doneAt < min {
				min = e.doneAt
			}
			continue
		}
		if u := c.arena.at(e.r); u.seq == e.seq && u.state == uopIssued {
			c.pushBucket(e.doneAt&(cwSize-1), waiter{e.seq, e.r})
		} else {
			c.cwCount-- // stale: the uop was squashed (or recycled) while waiting
		}
	}
	c.cwOvLen = kept
	c.cwOvMin = min
}

func (c *Core) completeStage() {
	// Fast paths: nothing in flight at all, then nothing due this cycle.
	// The wheel holds every pending completion in the bucket of its due
	// cycle, so a cycle with no completions is two compares and an empty
	// bucket check — no scan, no compaction.
	if c.cwCount == 0 {
		return
	}
	if c.cwOvMin < c.cycle+cwSize {
		c.migrateOverflow()
	}
	slot := c.cycle & (cwSize - 1)
	nb := int(c.cwLen[slot])
	if nb == 0 {
		return
	}
	c.cwLen[slot] = 0
	c.cwCount -= nb
	base := int(slot) * c.cwCap
	done := c.doneScratch
	nd := 0
	for _, w := range c.cwBuf[base : base+nb] {
		// Stale entries — squashed uops, or recycled slots carrying a
		// newer seq — drop here; live ones are exactly the issued uops
		// whose doneAt is this cycle.
		if u := c.arena.at(w.r); u.seq != w.seq || u.state != uopIssued {
			continue
		}
		done[nd] = w
		nd++
	}
	if nd == 0 {
		return
	}
	c.progress++
	// Resolve oldest-first: an older mispredicted branch squashes younger
	// completions in the same cycle. The batch is small (bounded by uops
	// finishing on one cycle), so an insertion sort beats sort.Slice.
	for i := 1; i < nd; i++ {
		for j := i; j > 0 && done[j-1].seq > done[j].seq; j-- {
			done[j-1], done[j] = done[j], done[j-1]
		}
	}
	for _, w := range done[:nd] {
		if u := c.arena.at(w.r); u.state != uopDead {
			c.completeUop(u)
		}
	}
}

func (c *Core) completeUop(u *uop) {
	u.state = uopCompleted
	u.hbAtDone, u.fsAtDone = c.ledger.Cum()
	if u.dest >= 0 {
		c.markReady(u.dest)
		c.regs.inv[u.dest] = u.inv
	}
	if u.isBranch() && !u.inst.WrongPath && u.predTaken != u.inst.Taken {
		if u.runahead {
			c.redirectRunahead(u)
		} else {
			c.recoverMispredict(u)
		}
	}
}

// recoverMispredict repairs a normal-mode branch misprediction: squash
// everything younger, rewind the stream and the predictor history, and
// redirect fetch. If the core is in runahead mode (the branch pre-dates
// runahead entry), runahead is aborted first.
func (c *Core) recoverMispredict(u *uop) {
	if c.mode == modeRunahead {
		c.abortRunahead()
	}
	c.squashYounger(u.seq)
	c.clearWrongPath()
	c.stream.rewind(u.streamIdx + 1)
	c.bp.Restore(c.bpSnapArena[u.bpSnap], true, u.inst.PC, u.inst.Taken)
	if u.inst.Taken {
		c.btb.Insert(u.inst.PC, u.inst.Target)
	}
	if c.fetchStallUntil < c.cycle+1 {
		c.fetchStallUntil = c.cycle + 1
	}
}

// squashYounger removes every uop younger than seqB from the ROB, the
// store queue and the front-end, rolling back rename state. Nothing else
// needs purging: the issue queue is implicit, and ready-list, wakeup and
// completion-wheel entries of a squashed uop are made inert by their
// seq/state guards and dropped when next walked, so a squash costs
// O(squashed), not O(in-flight).
func (c *Core) squashYounger(seqB uint64) {
	for c.robCount > 0 {
		tail := c.robSlot(c.robCount - 1)
		r := c.rob[tail]
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
		}
		if u.inLQ {
			c.lqCount--
		}
		if u.inSQ {
			c.sqLen-- // the SQ is in age order, so the squashed stores are its tail
		}
		u.state = uopDead
		c.rob[tail] = noUop
		c.robCount--
		c.release(r)
	}
	c.clearFrontQ()
}

// commitStage retires up to Width completed instructions from the ROB
// head, reporting their ACE windows and releasing resources. Commit is
// architecturally blocked during runahead mode.
func (c *Core) commitStage() {
	if c.mode == modeRunahead {
		return
	}
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		if c.commitBarrier > 0 && c.s.Committed >= c.commitBarrier {
			break
		}
		r := c.rob[c.robHead]
		u := c.arena.at(r)
		if u.state != uopCompleted {
			break
		}
		if u.isStore() {
			if c.storeLen >= c.cfg.PostCommitStoreBuffer {
				break
			}
			c.storeBuf[c.storeLen] = u.inst.Addr
			c.storeLen++
		}
		c.commitUop(r)
		c.rob[c.robHead] = noUop
		c.robHead++
		if c.robHead == c.cfg.ROB {
			c.robHead = 0
		}
		c.robCount--
		c.release(r)
		c.progress++
	}
}

func (c *Core) commitUop(r uopRef) {
	u := c.arena.at(r)
	in := &u.inst
	if in.WrongPath {
		panic(fmt.Sprintf("core: committing wrong-path uop seq=%d pc=%#x cycle=%d mode=%d wrongPath=%v",
			u.seq, in.PC, c.cycle, c.mode, c.wrongPath))
	}
	if len(c.injTags) > 0 {
		// Any bits tagged onto u reach architectural state: they were ACE.
		c.resolveInjections(r, InjectCorrupt)
	}
	// FNV-1a over (PC, class): the architectural commit-stream fingerprint.
	h := c.s.CommitHash
	if h == 0 {
		h = 14695981039346656037
	}
	h = (h ^ in.PC) * 1099511628211
	h = (h ^ uint64(in.Class)) * 1099511628211
	c.s.CommitHash = h
	c.s.Committed++
	switch {
	case in.IsLoad():
		c.s.CommittedLoads++
	case in.IsStore():
		c.s.CommittedStores++
	case in.IsBranch():
		c.s.CommittedBranches++
		c.bp.Update(in.PC, in.Taken, u.bpInfo)
		if in.Taken {
			c.btb.Insert(in.PC, in.Target)
		}
		if u.predTaken != in.Taken {
			c.s.Mispredicts++
		}
	}
	if u.prevDest >= 0 {
		c.regs.free(u.prevDest)
	}
	if u.inLQ {
		c.lqCount--
	}
	if u.inSQ {
		for i, s := range c.sqList[:c.sqLen] {
			if s == r {
				copy(c.sqList[i:], c.sqList[i+1:c.sqLen])
				c.sqLen--
				break
			}
		}
	}
	c.reportACE(u)
	c.stream.release(u.streamIdx + 1)
}

// reportACE resolves the committed instruction's vulnerability windows
// into the ledger (Figure 2 semantics). NOPs are un-ACE; wrong-path
// instructions never reach here.
func (c *Core) reportACE(u *uop) {
	if u.inst.IsNop() {
		return
	}
	now := c.cycle
	hbNow, fsNow := c.ledger.Cum()

	// ROB entry: dispatch → commit.
	c.ledger.Add(ace.ROB, uint64(c.bits.ROBEntry),
		now-u.dispatchedAt, hbNow-u.hbAtDispatch, fsNow-u.fsAtDispatch)

	// Every committed non-NOP uop issued and completed, so its issue and
	// completion snapshots are set.
	// Issue-queue entry: dispatch → issue.
	c.ledger.Add(ace.IQ, uint64(c.bits.IQEntry),
		u.issuedAt-u.dispatchedAt, u.hbAtIssue-u.hbAtDispatch, u.fsAtIssue-u.fsAtDispatch)

	// Load/store queue: execute → commit.
	if u.isLoad() {
		c.ledger.Add(ace.LQ, uint64(c.bits.LQEntry),
			now-u.issuedAt, hbNow-u.hbAtIssue, fsNow-u.fsAtIssue)
	}
	if u.isStore() {
		c.ledger.Add(ace.SQ, uint64(c.bits.SQEntry),
			now-u.issuedAt, hbNow-u.hbAtIssue, fsNow-u.fsAtIssue)
	}

	// Functional unit: bit width × execution cycles.
	lat := c.fuPools[poolOf(u.inst.Class)].Latency
	hbFU := minU64(lat, u.hbAtDone-u.hbAtIssue)
	fsFU := minU64(lat, u.fsAtDone-u.fsAtIssue)
	c.ledger.Add(ace.FU, c.fuWidth(u.inst.Class), lat, hbFU, fsFU)

	// Physical register: writeback → commit of the producer.
	if u.dest >= 0 {
		bits := uint64(c.bits.IntReg)
		if c.regs.isFp(u.dest) {
			bits = uint64(c.bits.FpReg)
		}
		c.ledger.Add(ace.RF, bits, now-u.doneAt, hbNow-u.hbAtDone, fsNow-u.fsAtDone)
	}
}

// drainStores writes one committed store per cycle into the L1D.
func (c *Core) drainStores() {
	if c.storeLen == 0 {
		return
	}
	res := c.hier.Access(c.storeBuf[0], c.cycle, mem.KindStore)
	if res.MSHRStall {
		return
	}
	c.progress++
	// The buffer is bounded by PostCommitStoreBuffer entries, so the
	// copy is cheap.
	c.storeLen = copy(c.storeBuf, c.storeBuf[1:c.storeLen])
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
