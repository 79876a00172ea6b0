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
	listed := make(map[*uop]uint64, len(c.readyList))
	for i, w := range c.readyList {
		if i > 0 && c.readyList[i-1].seq > w.seq {
			fail("ready list age order violated at %d: %d after %d",
				i, w.seq, c.readyList[i-1].seq)
		}
		if w.u.seq == w.seq && w.u.state == uopDispatched {
			listed[w.u] = w.seq
		}
	}
	// IQ: the queue is implicit — the ROB's waiting uops, then the
	// PRDQ's — so check each entry as the walks below meet it, and that
	// iqLive counts exactly them.
	iqLen := 0
	checkIQ := func(u *uop, runahead bool) {
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
			if _, ok := listed[u]; !ok {
				fail("IQ seq=%d has notReady=0 but is missing from the ready list", u.seq)
			}
		}
	}

	// ROB: occupancy matches, ages strictly increase, slots outside the
	// ring are nil.
	var prevSeq uint64
	lq := 0
	inROB := make(map[*uop]bool, c.robCount)
	for i := 0; i < c.cfg.ROB; i++ {
		idx := c.robSlot(i)
		u := c.rob[idx]
		if i < c.robCount {
			if u == nil {
				fail("ROB slot %d (occupied region) is nil", idx)
			}
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
				checkIQ(u, false)
			}
			inROB[u] = true
		} else if u != nil {
			fail("ROB slot %d (free region) holds seq=%d", idx, u.seq)
		}
	}
	if lq != c.lqCount {
		fail("lqCount=%d but %d ROB loads hold LQ entries", c.lqCount, lq)
	}
	for _, u := range c.prdq {
		if u.seq <= prevSeq {
			fail("PRDQ seq=%d is not younger than seq=%d before it", u.seq, prevSeq)
		}
		prevSeq = u.seq
		if u.state == uopDispatched {
			checkIQ(u, true)
		}
	}
	if iqLen != c.iqLive {
		fail("iqLive=%d but the ROB and PRDQ hold %d waiting uops", c.iqLive, iqLen)
	}
	if iqLen > c.cfg.IQ {
		fail("IQ over capacity: %d > %d", iqLen, c.cfg.IQ)
	}

	// SQ: age-ordered stores within capacity.
	if len(c.sqList) > c.cfg.SQ {
		fail("SQ over capacity: %d > %d", len(c.sqList), c.cfg.SQ)
	}
	for i := 1; i < len(c.sqList); i++ {
		if c.sqList[i].seq <= c.sqList[i-1].seq {
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
	for _, p := range c.regs.freeInt {
		mark(free, p, "freeInt")
	}
	for _, p := range c.regs.freeFp {
		mark(free, p, "freeFp")
	}
	for a := isa.Reg(0); a < isa.NumRegs; a++ {
		mark(owned, c.regs.rat[a], "RAT")
	}
	for u := range inROB {
		mark(owned, u.prevDest, "ROB prevDest")
	}
	for _, u := range c.prdq {
		mark(owned, u.prevDest, "PRDQ prevDest")
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
		for _, u := range c.prdq {
			if int(u.dest) == i {
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
	if c.mode == modeRunahead && c.blocking == nil {
		fail("runahead mode without a blocking load")
	}
	if c.mode == modeNormal && len(c.prdq) != 0 {
		fail("PRDQ non-empty in normal mode (%d entries)", len(c.prdq))
	}
}
