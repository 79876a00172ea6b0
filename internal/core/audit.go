package core

import (
	"fmt"

	"rarsim/internal/isa"
)

// Audit mode: an invariant checker over the core's internal state, run
// every N cycles when enabled. It is a test harness feature — the checks
// are O(structures) and would slow production simulation — but it turns
// subtle bookkeeping bugs (leaked registers, stale queue entries, ROB
// ordering violations) into immediate failures with context.

// EnableAudit turns on invariant checking every interval cycles. A failed
// invariant panics with a state description.
func (c *Core) EnableAudit(interval uint64) {
	if interval == 0 {
		interval = 1000
	}
	c.auditEvery = interval
}

func (c *Core) audit() {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("core audit @cycle %d (bench=%s scheme=%s mode=%d): %s",
			c.cycle, c.s.Benchmark, c.s.Scheme, c.mode, fmt.Sprintf(format, args...)))
	}

	// The ready list is age-ordered, and holds every waiting uop whose
	// wakeup filter has drained (checked against the IQ below).
	listed := make(map[uopRef]uint64, c.readyLen)
	for i, w := range c.readyList[:c.readyLen] {
		if i > 0 && c.readyList[i-1].seq > w.seq {
			fail("ready list age order violated at %d: %d after %d",
				i, w.seq, c.readyList[i-1].seq)
		}
		if u := c.arena.at(w.r); u.seq == w.seq && u.state == uopDispatched {
			listed[w.r] = w.seq
		}
	}
	// IQ: the queue is implicit — the ROB's waiting uops, then the
	// PRDQ's — so check each entry as the walks below meet it, and that
	// iqLive counts exactly them.
	iqLen := 0
	checkIQ := func(r uopRef, runahead bool) {
		u := c.arena.at(r)
		iqLen++
		if u.runahead != runahead {
			fail("IQ seq=%d has runahead=%v, but ROB uops are normal-mode and PRDQ uops runahead", u.seq, u.runahead)
		}
		// The event-driven wakeup filter is one-sided: a positive notReady
		// must imply unready sources (issueStage skips on it without
		// re-polling). notReady == 0 with unready sources is legal — PRE's
		// register recycling re-poisons a source behind the filter's back,
		// and issueStage's srcsReady confirm catches exactly that case.
		if u.notReady > 0 && c.srcsReady(u) {
			fail("IQ seq=%d notReady=%d but all sources ready", u.seq, u.notReady)
		}
		// Ready-list coverage: an entry whose wakeup filter has drained
		// must be visible to the issue loop, or it would never issue.
		if u.notReady == 0 {
			if _, ok := listed[r]; !ok {
				fail("IQ seq=%d has notReady=0 but is missing from the ready list", u.seq)
			}
		}
	}

	// Arena conservation: every slot is either free or named exactly once
	// by the ROB, the PRDQ or the front-end ring, so no uop leaks and none
	// is in two places at once.
	names := make([]int, len(c.arena.uops))
	name := func(r uopRef, where string) {
		if r < 0 || int(r) >= len(names) {
			fail("%s names arena slot %d, outside the %d-uop arena", where, r, len(names))
		}
		names[r]++
	}
	for _, r := range c.arena.free[:c.arena.nFree] {
		name(r, "the free list")
	}
	for k := 0; k < c.robCount; k++ {
		name(c.rob[c.robSlot(k)], "the ROB")
	}
	for _, r := range c.prdq[:c.prdqLen] {
		name(r, "the PRDQ")
	}
	for k := 0; k < c.frontQ.len(); k++ {
		name(c.frontQ.at(k), "the front-end ring")
	}
	for r, n := range names {
		if n != 1 {
			fail("arena slot %d is named %d times by the free list, ROB, PRDQ and front-end ring, want once", r, n)
		}
	}
	if live := c.robCount + c.prdqLen + c.frontQ.len(); c.arena.nFree+live != len(c.arena.uops) {
		fail("%d free + %d live uops != %d arena slots", c.arena.nFree, live, len(c.arena.uops))
	}

	// ROB: occupancy matches, ages strictly increase, slots outside the
	// ring are empty.
	var prevSeq uint64
	lq := 0
	inROB := make(map[*uop]bool, c.robCount)
	for i := 0; i < c.cfg.ROB; i++ {
		idx := c.robSlot(i)
		r := c.rob[idx]
		if i < c.robCount {
			if r == noUop {
				fail("ROB slot %d (occupied region) is empty", idx)
			}
			u := c.arena.at(r)
			if u.state == uopDead {
				fail("dead uop seq=%d in ROB", u.seq)
			}
			if u.seq <= prevSeq {
				fail("ROB age order violated: %d after %d", u.seq, prevSeq)
			}
			prevSeq = u.seq
			if u.inLQ {
				lq++
			}
			if u.state == uopDispatched {
				checkIQ(r, false)
			}
			inROB[u] = true
		} else if r != noUop {
			fail("ROB slot %d (free region) holds seq=%d", idx, c.arena.at(r).seq)
		}
	}
	if lq != c.lqCount {
		fail("lqCount=%d but %d ROB loads hold LQ entries", c.lqCount, lq)
	}
	for _, r := range c.prdq[:c.prdqLen] {
		u := c.arena.at(r)
		if u.seq <= prevSeq {
			fail("PRDQ seq=%d is not younger than seq=%d before it", u.seq, prevSeq)
		}
		prevSeq = u.seq
		if u.state == uopDispatched {
			checkIQ(r, true)
		}
	}
	if iqLen != c.iqLive {
		fail("iqLive=%d but the ROB and PRDQ hold %d waiting uops", c.iqLive, iqLen)
	}
	if iqLen > c.cfg.IQ {
		fail("IQ over capacity: %d > %d", iqLen, c.cfg.IQ)
	}

	// SQ: age-ordered stores within capacity, each still in the ROB.
	if c.sqLen > c.cfg.SQ {
		fail("SQ over capacity: %d > %d", c.sqLen, c.cfg.SQ)
	}
	for i, r := range c.sqList[:c.sqLen] {
		u := c.arena.at(r)
		if !u.inSQ || !inROB[u] {
			fail("SQ entry %d (seq=%d) is not a store in the ROB", i, u.seq)
		}
		if i > 0 && u.seq <= c.arena.at(c.sqList[i-1]).seq {
			fail("SQ age order violated at %d", i)
		}
	}

	// Register conservation: every physical register is exactly one of
	// {free, RAT-mapped, in-flight destination}. In-flight destinations
	// include ROB uops' prev mappings (still live until commit).
	total := c.regs.nInt + c.regs.nFp
	free := make([]int, total)
	owned := make([]int, total)
	mark := func(counts []int, p int16, what string) {
		if p < 0 {
			return
		}
		if int(p) >= total {
			fail("%s names register %d out of range", what, p)
		}
		counts[p]++
	}
	freeInt, freeFp := c.regs.freeLists()
	for _, p := range freeInt {
		mark(free, p, "freeInt")
	}
	for _, p := range freeFp {
		mark(free, p, "freeFp")
	}
	for a := isa.Reg(0); a < isa.NumRegs; a++ {
		mark(owned, c.regs.rat[a], "RAT")
	}
	for u := range inROB {
		mark(owned, u.prevDest, "ROB prevDest")
	}
	for _, r := range c.prdq[:c.prdqLen] {
		mark(owned, c.arena.at(r).prevDest, "PRDQ prevDest")
	}
	// During runahead the entry checkpoint keeps the pre-runahead
	// architectural mappings live for the exit restore.
	chkOwned := make([]bool, total)
	if c.mode == modeRunahead {
		for a := isa.Reg(0); a < isa.NumRegs; a++ {
			if p := c.chk.rat[a]; p >= 0 && int(p) < total {
				chkOwned[p] = true
			}
		}
	}
	isDest := func(i int) bool {
		for u := range inROB {
			if int(u.dest) == i {
				return true
			}
		}
		for _, r := range c.prdq[:c.prdqLen] {
			if int(c.arena.at(r).dest) == i {
				return true
			}
		}
		return false
	}
	for i := 0; i < total; i++ {
		if free[i] > 1 {
			fail("physical register %d double-freed", i)
		}
		if free[i] == 0 && owned[i] == 0 && !chkOwned[i] && !isDest(i) {
			fail("physical register %d leaked (not free, mapped, or in flight)", i)
		}
		// During runahead the PRDQ recycles registers the runahead RAT
		// may still name, and the checkpoint aliases current mappings —
		// both documented, benign hazards. Outside runahead, ownership
		// must be exclusive.
		if c.mode != modeRunahead {
			if owned[i] > 1 {
				fail("physical register %d multiply owned (%d owners)", i, owned[i])
			}
			if free[i] > 0 && owned[i] > 0 {
				fail("physical register %d both free and owned", i)
			}
		}
	}

	// Mode coherence.
	if c.mode == modeRunahead && c.blocking == noUop {
		fail("runahead mode without a blocking load")
	}
	if c.mode == modeNormal && c.prdqLen != 0 {
		fail("PRDQ non-empty in normal mode (%d entries)", c.prdqLen)
	}
}
