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
// runahead mode; runahead uops simply have no ROB entry. A uop lives in
// its core's arena (uopArena), and every structure that holds one names
// it by its uopRef: the record and the lists that name it hold no
// pointer, so the garbage collector never scans them and storing a
// reference needs no write barrier.
type uop struct {
	inst isa.Inst
	seq  uint64 // global age

	state    uopState
	runahead bool // dispatched during runahead mode
	inv      bool // poisoned: depends on the blocking load's unavailable value

	// Register renaming.
	src      [2]int16 // physical sources (-1 = none/ready immediate)
	dest     int16    // physical destination (-1 = none)
	prevDest int16    // previous mapping of the architectural dest, for rollback
	// notReady counts source registers still awaiting their producer.
	// Maintained event-driven (Core.markReady decrements it when a producer
	// publishes) so the issue stage tests one field instead of re-polling
	// the register file for every queued uop every cycle.
	notReady int8

	// Position bookkeeping.
	streamIdx uint64 // index into the correct-path stream (for rewind)
	inLQ      bool
	inSQ      bool

	// Timing.
	frontReadyAt uint64 // the cycle the uop clears the front-end pipe
	dispatchedAt uint64
	issuedAt     uint64
	doneAt       uint64
	retryAt      uint64 // earliest re-issue attempt after an MSHR stall

	// Memory.
	llcMiss   bool // the access missed the LLC
	longLat   bool // LLC miss or a long wait on an in-flight fill
	memIssued bool

	// Branch prediction state. bpSnap indexes the core's snapshot arena
	// (-1 = none): only mispredicted branches carry a history snapshot,
	// and keeping the 72-byte Snapshot out of line keeps it out of every
	// stage walk.
	predTaken bool
	bpSnap    int32

	// ACE attribution snapshots (cumulative blocked-cycle counters at
	// window-start events; see ace.Ledger).
	hbAtDispatch, fsAtDispatch uint64
	hbAtIssue, fsAtIssue       uint64
	hbAtDone, fsAtDone         uint64

	// bpInfo sits last deliberately: only branch uops (a minority) ever
	// touch it, so every field the non-branch stage walks read comes
	// before it. The whole uop is 208 bytes (TestUopSize).
	bpInfo branch.Info
}

func (u *uop) isLoad() bool   { return u.inst.IsLoad() }
func (u *uop) isStore() bool  { return u.inst.IsStore() }
func (u *uop) isBranch() bool { return u.inst.IsBranch() }

// uopRef names a uop by its slot in the core's arena; noUop names none.
type uopRef int32

const noUop uopRef = -1

// uopArena holds every uop a core can have in flight at once, in one
// []uop allocated at construction and never grown, with a free list of
// its slots. A uop is in flight from fetch until it commits or is
// squashed, and lives in exactly one of the ROB, the PRDQ and the
// front-end ring, so their capacities bound the arena (Core.arenaSize);
// the audit checks that every slot is either free or named by exactly one
// of them.
type uopArena struct {
	uops []uop
	// free is a stack of the free slots; nFree is its depth. The length
	// lives in an int rather than in the slice header, so taking and
	// returning slots writes no pointer.
	free  []uopRef
	nFree int
}

func newUopArena(size int) uopArena {
	a := uopArena{uops: make([]uop, size), free: make([]uopRef, size), nFree: size}
	// Hand out low slots first, so a core that never fills its window
	// touches only the front of the arena.
	for i := range a.free {
		a.free[i] = uopRef(size - 1 - i)
	}
	return a
}

// at returns the uop in slot r.
func (a *uopArena) at(r uopRef) *uop { return &a.uops[r] }

// get takes a free slot and resets its uop for a new incarnation.
func (a *uopArena) get() uopRef {
	if a.nFree == 0 {
		panic("core: uop arena exhausted")
	}
	a.nFree--
	r := a.free[a.nFree]
	a.uops[r].reset()
	return r
}

// put returns slot r to the free list.
func (a *uopArena) put(r uopRef) {
	a.free[a.nFree] = r
	a.nFree++
}

// reset clears the fields of a recycled uop that some path reads before
// it writes them; `*u = uop{}` would clear the whole record, and that
// duffzero was a measurable slice of fetch. Every other field is written
// first in each incarnation:
//
//   - src, dest, prevDest and bpSnap: by newUop, right after get;
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
//   - issuedAt, hbAtIssue/fsAtIssue and hbAtDone/fsAtDone: at issue and
//     completion, and read only for committed non-NOP uops, every one of
//     which issued and completed;
//   - doneAt: at issue, a NOP's dispatch or a runahead drop, before
//     anything reads it; llcMiss: with memIssued, behind which it is read.
//
// seq, which newUop numbers next, is zeroed anyway: a record handed out
// by the arena carries no identity of its previous incarnation.
func (u *uop) reset() {
	u.seq = 0
	u.runahead, u.inv = false, false
	u.inLQ, u.inSQ = false, false
	u.retryAt = 0
	u.longLat, u.memIssued = false, false
}
