// Package core implements the simulated out-of-order processor: a
// cycle-level structural model of the paper's baseline core (Table II) —
// fetch through commit, with wrong-path execution, a TAGE front-end, and a
// full memory hierarchy behind the load/store unit — plus every evaluated
// mechanism: Weaver-style Flushing, traditional runahead (TR), Precise
// Runahead Execution (PRE), and the paper's Reliability-Aware Runahead
// (RAR) with its flush-at-exit and early-start optimisations.
//
// ACE-bit accounting (package ace) is woven through the pipeline: every
// structure entry tentatively accumulates a vulnerability window per the
// paper's Figure 2 and the window is reported to the ledger only if the
// instruction commits. Squashes of any kind — wrong-path repair, runahead
// exit flush, Flushing — discard the windows, making that state un-ACE.
package core

import (
	"rarsim/internal/branch"
	"rarsim/internal/isa"
)

// uopState tracks a micro-op's progress through the back-end.
type uopState uint8

const (
	uopDispatched uopState = iota // in IQ (or waiting), not yet issued
	uopIssued                     // executing on an FU / memory access in flight
	uopCompleted                  // result produced, awaiting commit
	uopDead                       // squashed; awaiting lazy removal
)

// uop is one in-flight micro-op. The same record flows through normal and
// runahead mode; runahead uops simply have no ROB entry.
type uop struct {
	inst isa.Inst
	seq  uint64 // global age

	state uopState
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	runahead bool // dispatched during runahead mode
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	inv bool // poisoned: depends on the blocking load's unavailable value

	// Register renaming.
	src [2]int16 // physical sources (-1 = none/ready immediate)
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	dest int16 // physical destination (-1 = none)
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	prevDest int16 // previous mapping of the architectural dest, for rollback
	// notReady counts source registers still awaiting their producer.
	// Maintained event-driven (Core.markReady decrements it when a producer
	// publishes) so the issue stage tests one field instead of re-polling
	// the register file for every queued uop every cycle.
	notReady int8 //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window

	// Position bookkeeping.
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	streamIdx uint64 // index into the correct-path stream (for rewind)
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	robIdx int  // slot in the ROB ring; -1 for runahead uops
	inLQ   bool //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	inSQ   bool //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window

	// Timing.
	frontReadyAt uint64 //rarlint:unit cycles -- the cycle the uop clears the front-end pipe
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	dispatchedAt uint64 //rarlint:unit cycles
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	issuedAt uint64 //rarlint:unit cycles
	doneAt   uint64 //rarlint:unit cycles
	retryAt  uint64 //rarlint:unit cycles -- earliest re-issue attempt after an MSHR stall
	//rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	fuLatency uint64 //rarlint:unit cycles

	// Memory.
	llcMiss   bool // the access missed the LLC
	longLat   bool // LLC miss or a long wait on an in-flight fill
	memIssued bool

	// Branch prediction state. bpSnap indexes the core's snapshot arena
	// (-1 = none): only mispredicted branches carry a history snapshot,
	// and keeping the 72-byte Snapshot out of line keeps every uop within
	// four cache lines — the pool, the ROB ring and every stage walk touch
	// that much less cache.
	predTaken bool  //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	bpSnap    int32 //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window

	// ACE attribution snapshots (cumulative blocked-cycle counters at
	// window-start events; see ace.Ledger).
	hbAtDispatch, fsAtDispatch uint64 //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	hbAtIssue, fsAtIssue       uint64 //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	hbAtDone, fsAtDone         uint64 //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
	issueValid                 bool   //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window

	// inj holds indices of fault-injection samples tagged onto this uop
	// (see inject.go); resolved at commit or squash.
	inj []int32 //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window

	// bpInfo sits last deliberately: only branch uops (a minority) ever
	// touch it, and with inj it fills the uop's fourth cache line, so every
	// field the non-branch stage walks read sits in the first three. The
	// whole uop is 256 bytes (TestUopSize).
	bpInfo branch.Info //rarlint:quiescent uop-local record: only stage work on the uop consults it, and stages are idle across a skip window
}

func (u *uop) isLoad() bool   { return u.inst.IsLoad() }
func (u *uop) isStore() bool  { return u.inst.IsStore() }
func (u *uop) isBranch() bool { return u.inst.IsBranch() }

// uopPool recycles uop records to keep allocation off the hot path.
type uopPool struct {
	free []*uop //rarlint:quiescent uop allocator free list: allocation scratch with no timing content
}

func (p *uopPool) get() *uop {
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free = p.free[:n-1]
		u.reset()
		return u
	}
	//rarlint:allow hotalloc pool warm-up only; steady state recycles from free
	return &uop{}
}

// reset clears the fields of a recycled uop that some path reads before
// it writes them; `*u = uop{}` would clear all 256 bytes, and that
// duffzero was a measurable slice of fetch. Every other field is written
// first in each incarnation:
//
//   - src, dest, prevDest, robIdx and bpSnap: by newUop, right after get
//     (release also returns bpSnap to -1);
//   - inst and frontReadyAt: at every fetch site, and streamIdx at every
//     fetch of a stream instruction — the only uops whose streamIdx is
//     read;
//   - predTaken and bpInfo: by fetch's prediction of every on-path branch,
//     and only on-path branches read them;
//   - state: at dispatch (enqueueIQ, a NOP's completion, a runahead drop);
//     nothing reads the state of a uop still in the front-end pipe, and
//     the seq guard keeps the previous incarnation's registrations inert;
//   - notReady: by enqueueIQ, before any registration of this incarnation;
//   - dispatchedAt and hbAtDispatch/fsAtDispatch: at dispatch, and read
//     only for committed uops, all of which dispatched in normal mode;
//   - issuedAt, fuLatency, hbAtIssue/fsAtIssue, hbAtDone/fsAtDone: at
//     issue and completion, read only behind issueValid;
//   - doneAt: at issue, a NOP's dispatch or a runahead drop, before
//     anything reads it; llcMiss: with memIssued, behind which it is read;
//   - inj: release drains it to length 0, keeping its backing array so
//     tagged uops stop reallocating.
//
// seq, which newUop numbers next, is zeroed anyway: a record handed out
// by the pool carries no identity of its previous incarnation.
func (u *uop) reset() {
	u.seq = 0
	u.runahead, u.inv = false, false
	u.inLQ, u.inSQ = false, false
	u.retryAt = 0
	u.longLat, u.memIssued = false, false
	u.issueValid = false
}

func (p *uopPool) put(u *uop) {
	if len(p.free) < 4096 {
		p.free = append(p.free, u)
	}
}
