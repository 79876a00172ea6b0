package core

import "fmt"

// Stall fast-forward: when the core is quiescent — no stage can fetch,
// dispatch, issue, complete, commit or drain a store, and every pending
// event lies strictly in the future — the simulation clock may jump to the
// next event in one step instead of ticking seven no-op stages through
// every dead cycle. On memory-intensive workloads almost all cycles are
// spent inside such windows (the premise of the RAR paper itself), so the
// skip is where the simulator's wall-clock time goes from O(cycles) to
// O(events).
//
// Correctness contract: a run with fast-forward on is *byte-identical* to
// the same run with it off — every Stats field, every CommitHash, every
// figure CSV. The argument (see DESIGN.md §7):
//
//  1. Completeness of the event set. Every state transition the per-cycle
//     stages can make is gated either on current machine state (which, by
//     induction, does not change during a skipped window) or on a cycle
//     comparison against a timestamp that is already fixed when the skip
//     is computed: uop.doneAt (FU latency or the memory hierarchy's
//     DRAM/LLC return time), uop.retryAt (MSHR retry), uop.frontReadyAt
//     (front-end pipe exit), fetchStallUntil (L1I miss, flush or re-steer
//     penalty), fuBusyTill (unpipelined units), headSince+RunaheadTimer
//     (the runahead/FLUSH countdown timer) and blocking.doneAt (runahead
//     exit). nextEventCycle collects the minimum over exactly these. A
//     memory fill needs no event of its own: it changes nothing until a
//     uop consumes it, an in-flight load's doneAt is its fill cycle, and
//     the MSHR file reaps an expired entry only when an access, itself
//     an issue event, next reaches it.
//  2. Per-cycle accounting is a pure integral of constant state. The only
//     work a quiescent cycle performs is tickBlocked: the Figure 5
//     attribution counters and the ACE ledger's cumulative blocked-cycle
//     counters advance by a per-cycle amount fully determined by the
//     (frozen) blocking state, so n cycles collapse into one
//     accountBlocked(n), the call tickBlocked makes with n = 1. Ledger
//     residency windows (ace.Ledger.Add) and timeline buckets are only
//     written at commit, and nothing commits inside a skipped window.
//  3. Exact-cycle obligations clamp the skip. Invariant audits fire every
//     auditEvery cycles and fault-injection samples strike at a precise
//     cycle; the skip never jumps past either — it lands one cycle short
//     so the normal loop executes them on their exact cycle.
//
// Lockstep (core.go) is the one driver of the skip, for a single core and
// a chip alike: after a cycle in which a core made no progress it reads the
// core's dueCycle and defers the core until then; skipTo integrates the
// deferred stretch when the core comes due, and jumpClock moves the
// lockstep clock when every live core is deferred. step itself never
// skips.

// noEvent marks "no pending event" in next-event computations. A core with
// no pending event can never make progress again; Lockstep keeps ticking
// it rather than skipping toward noEvent, so the deadlock watchdog reports
// meaningful cycle numbers.
const noEvent = ^uint64(0)

// SetStallFastForward enables or disables the stall fast-forward
// (default: enabled). Disabling forces the classic cycle-by-cycle loop,
// the reference path of the A/B equivalence tests and of perfbench's
// fast-forward-off re-runs; by the equivalence contract it changes
// wall-clock time only.
func (c *Core) SetStallFastForward(enabled bool) { c.noFF = !enabled }

// FFSkippedCycles returns the number of cycles the stall fast-forward has
// skipped in bulk so far (diagnostics; not part of Stats, which must stay
// identical with fast-forward on and off).
func (c *Core) FFSkippedCycles() uint64 { return c.ffSkipped }

// nextEventCycle returns the earliest cycle > c.cycle at which any
// pipeline stage can change machine state, assuming no state changes until
// then. A return of c.cycle+1 means the core is busy (something can act on
// the very next cycle) and nothing can be skipped. Called at the bottom of
// a simulated cycle, after every stage has run.
//
// This runs every non-skipped cycle, so its own cost decides whether the
// fast-forward is a net win: the O(1) sources run first and every source
// short-circuits the moment the core is proven busy, so busy cycles pay a
// few comparisons and only genuinely stalled cycles reach the IQ/exec
// scans — whose cost is then amortised over the whole skipped window.
func (c *Core) nextEventCycle() uint64 {
	busy := c.cycle + 1

	// Post-commit stores drain one per cycle; a non-empty buffer acts
	// every cycle.
	if c.storeLen > 0 {
		return busy
	}

	head := c.robHeadUop()
	// A completed ROB head commits next cycle (commit is architecturally
	// blocked during runahead; the runahead exit is handled below).
	if c.mode == modeNormal && head != nil && head.state == uopCompleted {
		return busy
	}

	// Fetch: acts when its stall expires, unless the front-end pipe is at
	// capacity (then only dispatch progress — an event below — unblocks it).
	t := noEvent
	if c.frontQ.len() < c.frontQCap() {
		if c.fetchStallUntil <= busy {
			return busy
		}
		t = c.fetchStallUntil
	}

	// Dispatch: in-order, so only the pipe head matters. A structurally
	// stalled head waits for a commit/completion/squash — all events in
	// their own right. In runahead mode dispatch consumes (or drops) every
	// instruction as long as the PRDQ and the register file have room. A
	// runahead head stalled on a full IQ is not quiescent: dispatchRunahead
	// renames it and counts it in TotalDispatched before its IQ check, then
	// undoes only the rename, so every stalled cycle counts it once more
	// and skipping those cycles would change Stats.
	if c.frontQ.len() > 0 {
		u := c.arena.at(c.frontQ.at(0))
		stalled := false
		if c.mode == modeRunahead {
			stalled = c.runaheadDispatchStalled(u)
		} else {
			stalled = c.dispatchStalled(u)
		}
		if !stalled {
			if u.frontReadyAt <= busy {
				return busy
			}
			if u.frontReadyAt < t {
				t = u.frontReadyAt
			}
		}
	}

	// Mode transitions: runahead exit, PRDQ drain, countdown timers.
	if ev := c.modeNextEvent(head); ev <= busy {
		return busy
	} else if ev < t {
		t = ev
	}

	// Execution completions: FU latencies and memory return times
	// (uop.doneAt carries the hierarchy's DRAM/LLC fill cycle). The wheel
	// is probed by bucket occupancy alone — no uop is dereferenced. Every
	// occupied bucket lies strictly ahead of the current cycle (past
	// buckets were drained when their cycle ticked), so the first
	// non-empty bucket from busy onward is the earliest in-window
	// completion; cwOvMin bounds the out-of-window ones. A bucket kept
	// non-empty only by stale (squashed) entries merely wakes the core
	// early — by the equivalence contract, ticking an extra idle cycle
	// changes nothing.
	if c.cwCount > 0 {
		for k := uint64(1); k < cwSize; k++ {
			if c.cwLen[(c.cycle+k)&(cwSize-1)] == 0 {
				continue
			}
			if ev := c.cycle + k; ev <= busy {
				return busy
			} else if ev < t {
				t = ev
			}
			break
		}
		if c.cwOvMin <= busy {
			return busy
		}
		if c.cwOvMin < t {
			t = c.cwOvMin
		}
	}

	// Issue: a waiting uop with ready sources retries as soon as its MSHR
	// backoff expires and (for unpipelined pools) its unit frees up. Uops
	// with unready sources wake only via a producer's completion, which is
	// itself an execution event above — so only the ready list (the exact
	// candidate set issueStage scans) needs walking, not the whole queue.
	for _, w := range c.readyList[:c.readyLen] {
		if !c.waiting(w) {
			continue
		}
		u := c.arena.at(w.r)
		if !c.srcsReady(u) {
			continue
		}
		ev := max(busy, u.retryAt)
		if pool := poolOf(u.inst.Class); !c.fuPools[pool].Pipelined {
			ev = max(ev, c.fuBusyTill[pool])
		}
		if ev <= busy {
			return busy
		}
		if ev < t {
			t = ev
		}
	}

	return t
}

// clampObligations lowers a next-event target to the nearest exact-cycle
// obligation: invariant audits fire every auditEvery cycles and
// fault-injection samples strike at a precise cycle, so any skip must stop
// short of the nearest one and let the normal loop land on it.
func (c *Core) clampObligations(target uint64) uint64 {
	if c.auditEvery > 0 {
		if next := (c.cycle/c.auditEvery + 1) * c.auditEvery; next < target {
			target = next
		}
	}
	if c.injNext < len(c.injSamples) {
		if ic := c.injSamples[c.injNext].Cycle; ic < target {
			target = ic
		}
	}
	return target
}

// dueCycle returns the earliest future cycle at which this core must
// execute a normal simulated cycle: the earliest cycle any pipeline stage
// can change machine state (nextEventCycle), lowered to the core's
// exact-cycle obligations (audit multiples, pending fault-injection
// strikes). A return of cycle+1 means the core is busy; noEvent means no
// event is pending at all. Like nextEventCycle it is only meaningful at the
// bottom of a simulated cycle, after every stage has run.
func (c *Core) dueCycle() uint64 {
	target := c.nextEventCycle()
	if target == noEvent {
		return noEvent
	}
	return c.clampObligations(target)
}

// skipTo bulk-advances a quiescent core from its current cycle to the later
// cycle target without simulating the intervening cycles. The contract is
// the fast-forward equivalence contract: target must lie strictly before
// the core's due cycle. skipTo re-derives dueCycle and panics on a
// violation rather than silently corrupting the run, so a driver bug that
// computed a skip window from stale or foreign state cannot go unnoticed.
func (c *Core) skipTo(target uint64) {
	if ev := c.dueCycle(); target >= ev {
		panic(fmt.Sprintf("core: skipTo(%d) would jump past the next event at %d (cycle %d)", target, ev, c.cycle))
	}
	c.bulkAdvance(target - c.cycle)
}

// jumpClock returns the lockstep clock for the cycle before due, the
// earliest due cycle of the live cores (those short of target), when every
// live core is deferred past the next cycle. A deferred core's due cycle
// already covers its own memory returns: each in-flight load completes at
// its fill cycle, an event of nextEventCycle (the completion wheel, or
// cwOvMin beyond it), and a deferred core makes no new accesses. Finished
// cores are no longer probed, so the jump is lowered below their
// outstanding fills: no memory-side return time can land inside a jumped
// stretch.
func jumpClock(cores []*Core, now, target, due uint64) uint64 {
	for _, c := range cores {
		if c.s.Committed >= target {
			if fill, ok := c.hier.NextFillAt(now); ok {
				due = min(due, fill)
			}
		}
	}
	return max(now, due-1)
}

// bulkAdvance moves the clock n cycles forward in one step. The skipped
// cycles would each have run tickBlocked with exactly the current (frozen)
// blocking state, so the accounting integrates in one accountBlocked(n).
// Callers guarantee quiescence over the whole window.
func (c *Core) bulkAdvance(n uint64) {
	first := c.cycle + 1
	c.accountBlocked(n)
	// Replicate tickBlocked's head-tracking for the skipped window: if the
	// head changed during the current cycle, the first skipped tick would
	// have restarted the countdown timer (modeNextEvent already used that
	// restarted base when it computed the skip target).
	if head := c.robHeadUop(); head == nil {
		c.headSeq, c.headSince = 0, c.cycle+n
	} else if head.seq != c.headSeq {
		c.headSeq, c.headSince = head.seq, first
	}
	c.cycle += n
	c.ledger.SetCycle(c.cycle)
	c.ffSkipped += n
}
