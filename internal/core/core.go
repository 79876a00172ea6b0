package core

import (
	"errors"
	"fmt"
	"strings"

	"rarsim/internal/ace"
	"rarsim/internal/branch"
	"rarsim/internal/config"
	"rarsim/internal/isa"
	"rarsim/internal/mem"
	"rarsim/internal/trace"
)

// mode is the core's execution mode.
type mode uint8

const (
	modeNormal mode = iota
	modeRunahead
)

// fuPool indices.
const (
	fuIntAdd = iota
	fuIntMult
	fuIntDiv
	fuFpAdd
	fuFpMult
	fuFpDiv
	numFuPools
)

// Core is one simulated out-of-order processor running one workload under
// one scheme. Create with New, run with Run; Lockstep runs several cores
// together. A Core is single-use.
type Core struct {
	cfg    config.Core
	scheme config.Scheme
	bits   ace.Bits

	gen trace.Source
	// genBlk is gen's batch face when it has one (trace.BlockSource);
	// nil forces the scalar per-instruction path (A/B equivalence runs
	// wrap the source in trace.ScalarOnly to get exactly that).
	genBlk trace.BlockSource
	stream *streamBuf
	bp     *branch.Predictor
	btb    *branch.BTB
	hier   *mem.Hierarchy
	ledger *ace.Ledger
	regs   *regFile
	arena  uopArena

	//rarlint:nscaled the skip target itself: bulkAdvance jumps it to the bounded next-event cycle
	cycle uint64 //rarlint:unit cycles
	seq   uint64 //rarlint:quiescent uop numbering source: advances only when stage-driven fetch creates uops

	// Front-end.
	frontQ          frontRing
	fetchStallUntil uint64 //rarlint:unit cycles
	wrongPath       bool   //rarlint:quiescent wrong-path fetch latch: only stage-driven fetch consults it
	wpPC            uint64 //rarlint:quiescent wrong-path fetch cursor: only stage-driven fetch consults it
	// wpScratch receives one fetch group's batch of synthesised
	// wrong-path instructions (fetchWrongPathGroup); sized Width.
	wpScratch []isa.Inst
	// wpSynthetic counts synthesised wrong-path instructions still to
	// fetch: >0 for a bounded hammock body, -1 for a non-reconvergent
	// path, 0 while off-path means fetch reconverged onto the stream.
	wpSynthetic int //rarlint:quiescent wrong-path fetch cursor: only stage-driven fetch consults it

	// Back-end. Every list below that names uops holds uopRefs and keeps
	// its length in an int field beside a slice allocated at construction
	// (or grown only to a new high-water mark), so the per-cycle work
	// stores no pointer and rewrites no slice header.
	rob      []uopRef
	robHead  int
	robCount int
	// iqLive is the issue queue's occupancy: the dispatched uops still
	// waiting to issue. The queue itself is implicit — its entries are
	// exactly the ROB's and the PRDQ's uops in state uopDispatched — so
	// nothing but this count is kept: enqueueIQ raises it, issue and the
	// three squash paths (squashYounger, squashRunaheadYounger,
	// discardRunahead) lower it. iqEntry lists the queue for IQ fault
	// injection, and the audit checks the count against the same walk.
	iqLive int
	// readyList[:readyLen] holds the issue candidates in seq order: every
	// live dispatched uop whose notReady filter has hit zero. Entries are
	// seq-guarded like waiter registrations — issued, squashed or recycled
	// uops go stale and are dropped lazily as issueStage walks the list —
	// so issueStage and the next-event probe scan a handful of candidates
	// instead of the whole queue. It is sized to the IQ: issueStage keeps
	// only waiting uops, and every entry pushed before its next walk names
	// a distinct uop that was in the issue queue since the last one
	// (markReady, too, pushes only waiting uops).
	//rarlint:survives seq-guarded: entries registered in runahead are inert after the squash recycles their uops
	readyList []waiter
	//rarlint:survives seq-guarded: entries registered in runahead are inert after the squash recycles their uops
	readyLen int
	lqCount  int
	// sqList[:sqLen] holds the in-flight stores in age order, for
	// forwarding.
	sqList []uopRef //rarlint:quiescent store-queue entries: dispatch is bounded by their count, sqLen; only stage-driven issue reads them
	sqLen  int
	// Completion wheel: in-flight executions bucketed by completion cycle
	// (a calendar queue), so completeStage touches exactly the uops due
	// this cycle instead of scanning and compacting the whole in-flight
	// set every cycle. Bucket i at cycle t holds entries due at the unique
	// cycle ≡ i (mod cwSize) within (t, t+cwSize]; completions further out
	// (DRAM fills) wait in cwOverflow and migrate into buckets when the
	// clock comes within a window of them. Entries are seq-guarded like
	// waiter registrations — squashed or recycled uops go stale in place
	// and are dropped when their bucket drains, which is why none of this
	// needs rewinding at a flush or runahead exit. Bucket i is
	// cwBuf[i*cwCap:][:cwLen[i]]: the buckets share one backing at a fixed
	// stride, which doubles (growStrided) the first time any bucket would
	// outgrow it.
	cwBuf []waiter //rarlint:quiescent completion-wheel entries: the probe bounds the skip by bucket occupancy, cwLen; only stage-driven completion reads them
	cwLen [cwSize]int32
	cwCap int //rarlint:quiescent completion-wheel stride: allocation layout with no timing content
	// cwOverflow[:cwOvLen] is the spill list.
	cwOverflow []cwEntry //rarlint:quiescent completion-wheel spill: its earliest deadline is covered separately via cwOvMin
	cwOvLen    int       //rarlint:quiescent completion-wheel spill: its earliest deadline is covered separately via cwOvMin
	// cwOvMin is the earliest doneAt in cwOverflow (noEvent when
	// empty); it may go stale-low via squashed entries, which costs a
	// redundant migration scan, never a missed completion.
	cwOvMin uint64 //rarlint:unit cycles
	// cwCount is the number of wheel entries, live or stale; zero means
	// completeStage has nothing to do at all.
	cwCount int

	// The wakeup lists hold, per physical register p, the issue-queue
	// uops waiting for it to become ready (see backend.go:
	// enqueueIQ/markReady): waitBuf[p*waitCap:][:waitLen[p]]. Each entry
	// is seq-guarded: arena slots are recycled, so an entry only acts on
	// the incarnation that registered it. The stride is deliberately
	// small: sizing every list for the 2*IQ worst case put registers ~3KB
	// apart — a megabyte of backing whose appends missed cache on nearly
	// every registration. Sixteen entries cover the common case with the
	// whole backing L2-resident. A full list first drops its stale
	// registrations (addWaiter), and the stride doubles (growStrided) only
	// when a register holds more live ones.
	//rarlint:survives seq-guarded: entries registered in runahead are inert after the squash recycles their uops
	waitBuf []waiter //rarlint:quiescent wakeup lists: drained by stage-driven completion, whose timing fill and FU events cover
	//rarlint:survives seq-guarded: entries registered in runahead are inert after the squash recycles their uops
	waitLen []int32 //rarlint:quiescent wakeup lists: drained by stage-driven completion, whose timing fill and FU events cover
	//rarlint:survives allocation layout with no architectural content
	waitCap int //rarlint:quiescent wakeup-list stride: allocation layout with no timing content

	// bpSnapArena backs the history snapshots of in-flight mispredicted
	// branches, indexed by uop.bpSnap. Only mispredicts allocate a slot
	// (a handful live at once), so the 72-byte Snapshot stays out of
	// the uop record. Slots recycle through bpSnapFree[:bpSnapFreeN] when
	// the owning uop is released; a freed slot's content is dead, so
	// neither list needs restoring at runahead exit. Both grow together,
	// one slot at a time, to the high-water mark of live mispredicts.
	bpSnapArena []branch.Snapshot //rarlint:quiescent snapshot allocator arena: allocation scratch with no timing content
	bpSnapFree  []int32           //rarlint:quiescent snapshot allocator free list: allocation scratch with no timing content
	bpSnapFreeN int               //rarlint:quiescent snapshot allocator free list: allocation scratch with no timing content

	// doneScratch is completeStage's reusable completion buffer, sized
	// to the arena: no more uops can complete in one cycle.
	doneScratch []waiter

	fuPools [numFuPools]config.FUPool
	//rarlint:quiescent per-cycle FU issue tally: recomputed from zero each busy cycle
	fuIssued   [numFuPools]int    // pipelined pools: ops issued this cycle
	fuBusyTill [numFuPools]uint64 //rarlint:unit cycles -- unpipelined pools: next free cycle

	// storeBuf[:storeLen] holds the post-commit store addresses awaiting
	// their L1D write, oldest first.
	storeBuf []uint64 //rarlint:quiescent post-commit store addresses: the probe reads their count, storeLen; only drainStores reads them
	storeLen int

	// ROB-head blocking tracking.
	headSeq uint64 //rarlint:nscaled watchdog bookkeeping: refreshed to the value n blocked ticks would leave
	//rarlint:nscaled watchdog bookkeeping: refreshed to the value n blocked ticks would leave
	headSince uint64 //rarlint:unit cycles

	// Runahead machinery.
	mode     mode
	blocking uopRef // the load that triggered runahead; noUop in normal mode
	// prdq[:prdqLen] is the precise register deallocation queue: the
	// runahead uops in dispatch order.
	prdq       []uopRef //rarlint:survives entries past prdqLen are dead, and discardRunahead empties the queue by zeroing prdqLen
	prdqLen    int
	sstT       *sst
	prod       *producers
	lastWriter [isa.NumRegs]uint64 //rarlint:quiescent store-set training bookkeeping: consulted only during stage-driven dispatch
	raDiverged bool                //rarlint:quiescent divergence latch: read only on stage-driven runahead paths
	chk        checkpoint

	// SST training dedup: last PC trained, to avoid rewalking hot loads.
	lastTrainedPC uint64 //rarlint:quiescent trainer dedup latch: no timing content

	// lastFlushSeq prevents the FLUSH scheme from re-flushing for the
	// same blocking load every cycle.
	lastFlushSeq uint64

	// commitBarrier caps commits so the run stops exactly at the warmup
	// boundary and at the requested instruction count (commit is up to
	// Width wide per cycle).
	commitBarrier uint64

	// Fault-injection campaign state (inject.go). injTags pairs each
	// struck uop's arena slot with a sample it carries until the uop
	// commits or is squashed; it is empty outside injection campaigns.
	injSamples []InjectSample
	injNext    int
	injTags    []injTag //rarlint:quiescent injection tag list: resolved at commit or squash, never consulted by timing decisions

	// auditEvery enables the invariant checker (audit.go) every N cycles.
	auditEvery uint64

	// progress increments whenever a stage moves machine state forward
	// (fetch, dispatch, issue, complete, commit, store drain, mode
	// transitions). Lockstep compares it with progMark to skip the
	// next-event probe on busy cycles: a cycle that made progress is
	// near-certainly followed by a busy cycle, so probing it is pure
	// overhead. The guard is a heuristic with a one-sided failure mode — a
	// missed bump just runs the probe (status quo), an over-bump costs at
	// most one extra ticked cycle per stall window — so it can never change
	// results.
	progress uint64 //rarlint:quiescent watchdog progress latch: consulted by Lockstep, never by skip bounds
	progMark uint64 // progress after this core's previous Lockstep step

	// due is the Lockstep cycle at which this core must next be stepped;
	// until then it is deferred. Zero, as in a new core, means at once,
	// with no probe after that first step of a run: quiescence is not
	// known yet.
	due uint64 //rarlint:unit cycles

	// Stall fast-forward (ff.go): noFF disables the quiescent-cycle skip
	// (its zero value keeps the skip on); ffSkipped counts cycles advanced
	// in bulk. Both are diagnostics outside Stats — results are identical
	// either way, by the equivalence contract.
	noFF      bool
	ffSkipped uint64 //rarlint:nscaled fast-forward telemetry: counts exactly the cycles the skip replaced

	s Stats
}

// checkpoint is the state saved at runahead (or flush) entry. Exit
// *consumes* the checkpoint (restoreRAT, bp.Restore, stream.rewind read
// from it) rather than clearing it; the stale copy left behind is
// architecturally dead until the next enterRunahead overwrites it.
type checkpoint struct {
	//rarlint:quiescent checkpoint payload: consumed at runahead exit, which modeNextEvent bounds via the mode-transition events
	rat [isa.NumRegs]int16 //rarlint:survives consumed at exit, overwritten by the next entry
	//rarlint:quiescent checkpoint payload: consumed at runahead exit, which modeNextEvent bounds via the mode-transition events
	bpSnap branch.Snapshot //rarlint:survives consumed at exit, overwritten by the next entry
	//rarlint:survives consumed at exit, overwritten by the next entry
	//rarlint:quiescent checkpoint payload: consumed at runahead exit, which modeNextEvent bounds via the mode-transition events
	resumeCursor uint64 // fetch cursor to restore on a PRE-style exit
	//rarlint:quiescent checkpoint payload: consumed at runahead exit, which modeNextEvent bounds via the mode-transition events
	wrongPath bool //rarlint:survives consumed at exit, overwritten by the next entry
	//rarlint:quiescent checkpoint payload: consumed at runahead exit, which modeNextEvent bounds via the mode-transition events
	wpPC uint64 //rarlint:survives consumed at exit, overwritten by the next entry
	//rarlint:quiescent checkpoint payload: consumed at runahead exit, which modeNextEvent bounds via the mode-transition events
	wpSynthetic int //rarlint:survives consumed at exit, overwritten by the next entry
}

// Stats is the result of one simulation run.
type Stats struct {
	Benchmark string
	Scheme    string
	CoreName  string

	Cycles    uint64 //rarlint:unit cycles
	Committed uint64 //rarlint:unit insts

	CommittedLoads    uint64 //rarlint:unit insts
	CommittedStores   uint64 //rarlint:unit insts
	CommittedBranches uint64 //rarlint:unit insts
	Mispredicts       uint64 //rarlint:unit insts
	WrongPathFetched  uint64

	RunaheadEntries uint64
	//rarlint:nscaled mode-cycle counter: scales linearly with the skipped span
	RunaheadCycles   uint64 //rarlint:unit cycles
	RunaheadExecuted uint64 //rarlint:unit uops -- executed in runahead mode
	RunaheadDropped  uint64 //rarlint:unit uops -- filtered or INV-dropped in runahead
	Flushes          uint64 // FLUSH-scheme pipeline flushes

	// Activity counters for energy accounting: everything that consumed
	// pipeline bandwidth, including wrong-path, runahead and re-fetched
	// work that never (or repeatedly) committed.
	TotalFetched    uint64 //rarlint:unit uops
	TotalDispatched uint64 //rarlint:unit uops
	TotalIssued     uint64 //rarlint:unit uops

	//rarlint:nscaled blocked-cycle counter: advances by n, matching n per-cycle ticks
	HeadBlockedCycles uint64 //rarlint:unit cycles
	//rarlint:nscaled blocked-cycle counter: advances by n, matching n per-cycle ticks
	FullStallCycles uint64 //rarlint:unit cycles

	// CommitHash is an FNV-1a hash over the committed instruction
	// sequence (PC and class, in commit order) for the whole run,
	// including warmup. Every scheme must commit the identical dynamic
	// stream — speculation of any kind never changes architectural
	// execution — so the hash must agree across schemes for the same
	// (benchmark, seed, instruction count).
	CommitHash uint64

	ABC            [ace.NumStructures]uint64 //rarlint:unit bitcycles
	TotalABC       uint64                    //rarlint:unit bitcycles
	HeadBlockedABC uint64                    //rarlint:unit bitcycles
	FullStallABC   uint64                    //rarlint:unit bitcycles
	TotalBits      uint64                    //rarlint:unit bits

	Mem mem.Stats
}

// IPC returns committed instructions per cycle.
//
//rarlint:pure
//rarlint:unit insts/cycles
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MPKI returns demand-load LLC misses per thousand committed instructions.
//
//rarlint:pure
//rarlint:unit uops/insts
func (s Stats) MPKI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return 1000 * float64(s.Mem.DemandLLCMisses) / float64(s.Committed)
}

// AVF returns the run's architectural vulnerability factor (Equation 2).
//
//rarlint:pure
//rarlint:unit 1
func (s Stats) AVF() float64 {
	return ace.AVF(s.TotalABC, s.TotalBits, s.Cycles)
}

// MispredictRate returns mispredictions per committed branch.
//
//rarlint:pure
//rarlint:unit 1
func (s Stats) MispredictRate() float64 {
	if s.CommittedBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CommittedBranches)
}

// New builds a core for the given configuration, scheme and synthetic
// workload.
func New(cfg config.Core, scheme config.Scheme, bench trace.Benchmark, seed uint64) *Core {
	return NewFromSource(cfg, scheme, bench.Name, trace.New(bench, seed))
}

// NewFromSource builds a core running an arbitrary instruction source —
// a recorded trace file, or any other Source implementation.
func NewFromSource(cfg config.Core, scheme config.Scheme, name string, gen trace.Source) *Core {
	return NewWithHierarchy(cfg, scheme, name, gen, mem.NewHierarchy(cfg.Mem))
}

// NewWithHierarchy builds a core on an existing memory hierarchy — the
// multicore driver passes per-core hierarchies that share an LLC and DRAM
// (mem.NewHierarchyWithShared).
func NewWithHierarchy(cfg config.Core, scheme config.Scheme, name string, gen trace.Source, h *mem.Hierarchy) *Core {
	c := &Core{
		cfg:        cfg,
		scheme:     scheme,
		bits:       ace.DefaultBits(),
		gen:        gen,
		stream:     newStreamBuf(gen),
		bp:         branch.NewPredictor(),
		btb:        branch.NewBTB(12),
		hier:       h,
		ledger:     ace.NewLedger(),
		regs:       newRegFile(cfg.IntRegs, cfg.FpRegs),
		rob:        make([]uopRef, cfg.ROB),
		readyList:  make([]waiter, cfg.IQ),
		sqList:     make([]uopRef, cfg.SQ),
		prdq:       make([]uopRef, cfg.PRDQ),
		storeBuf:   make([]uint64, cfg.PostCommitStoreBuffer),
		blocking:   noUop,
		cwBuf:      make([]waiter, cwSize*cwBucketCap),
		cwCap:      cwBucketCap,
		cwOverflow: make([]cwEntry, cfg.ROB),
		cwOvMin:    noEvent,
		waitBuf:    make([]waiter, (cfg.IntRegs+cfg.FpRegs)*waitListCap),
		waitLen:    make([]int32, cfg.IntRegs+cfg.FpRegs),
		waitCap:    waitListCap,
		sstT:       newSST(cfg.SST),
		prod:       newProducers(12),
	}
	if b, ok := gen.(trace.BlockSource); ok {
		c.genBlk = b
	}
	for i := range c.rob {
		c.rob[i] = noUop
	}
	// Fetch checks the soft cap before a group and then pushes up to one
	// full group, so frontQCap()+Width bounds occupancy.
	c.frontQ = newFrontRing(c.frontQCap() + cfg.Width)
	c.wpScratch = make([]isa.Inst, cfg.Width)
	n := c.arenaSize()
	c.arena = newUopArena(n)
	c.doneScratch = make([]waiter, n)
	c.fuPools[fuIntAdd] = cfg.IntAdd
	c.fuPools[fuIntMult] = cfg.IntMult
	c.fuPools[fuIntDiv] = cfg.IntDiv
	c.fuPools[fuFpAdd] = cfg.FpAdd
	c.fuPools[fuFpMult] = cfg.FpMult
	c.fuPools[fuFpDiv] = cfg.FpDiv

	c.s.Benchmark = name
	c.s.Scheme = scheme.Name
	c.s.CoreName = cfg.Name
	c.s.TotalBits = ace.TotalBits(c.bits, ace.Sizes{
		ROB: cfg.ROB, IQ: cfg.IQ, LQ: cfg.LQ, SQ: cfg.SQ,
		IntRegs: cfg.IntRegs, FpRegs: cfg.FpRegs,
		IntFUs: cfg.IntFUCount(), FpFUs: cfg.FpFUCount(),
	})
	return c
}

// waitListCap is the initial per-register stride of the wakeup lists.
const waitListCap = 16

// arenaSize is the number of uops the core can have in flight at once:
// the ROB, the front-end ring's hard bound (see frontRing) and, for
// schemes that enter runahead, the PRDQ. No other structure holds a uop.
func (c *Core) arenaSize() int {
	n := c.cfg.ROB + c.frontQCap() + c.cfg.Width
	if c.scheme.Runahead {
		n += c.cfg.PRDQ
	}
	return n
}

// watchdogWindow is the commit-progress deadline: if no core commits for
// this many *ticked* cycles — Lockstep iterations actually simulated, not
// cycles skipped in bulk by the stall fast-forward — the run reports a
// deadlock. Counting ticks rather than wall cycles keeps the two watchdog
// properties independent of fast-forward: a legitimate stall longer than
// the window (e.g. a pathologically slow DRAM) collapses into a handful of
// ticks and survives, while a genuine deadlock generates no events, is
// never skipped, and accumulates ticks until the watchdog fires.
const watchdogWindow = 500_000

// Run simulates until instructions have committed and returns the run's
// statistics. It returns an error if the pipeline deadlocks (a model bug,
// not an expected outcome).
//
//rarlint:hot
func (c *Core) Run(instructions uint64) (Stats, error) {
	return c.RunWarm(0, instructions)
}

// RunWarm simulates warmup+measured further committed instructions and
// returns statistics covering only the measured portion — the equivalent
// of the paper's warmed-up SimPoint measurement. Caches, predictors and
// the SST stay trained across the boundary; only the counters reset.
// Targets are relative to instructions already committed, so repeated
// calls measure consecutive windows of one run. A target past the uint64
// instruction count is an error.
//
//rarlint:hot
func (c *Core) RunWarm(warmup, measured uint64) (Stats, error) {
	base := c.s.Committed
	warmTarget := base + warmup
	total := warmTarget + measured
	if warmTarget < base || total < warmTarget {
		//rarlint:allow hotalloc argument check before the first cycle, never inside the loop
		return Stats{}, fmt.Errorf("core: warmup %d + measured %d instructions past the %d already committed overflows uint64",
			warmup, measured, base)
	}
	c.due = 0 // a new run: its first step is not probed
	one := [1]*Core{c}
	if err := Lockstep(one[:], warmTarget); err != nil {
		return c.s, err
	}
	c.finalizeStats()
	warm := c.s
	if err := Lockstep(one[:], total); err != nil {
		return c.s, err
	}
	c.finalizeStats()
	return c.s.sub(warm), nil
}

// Lockstep is the run loop: it steps cores in slice order, one cycle each
// per lockstep cycle, until each has committed target instructions in
// total, and freezes each core as it gets there (a frozen core issues no
// further memory traffic). Cores sharing an LLC and DRAM therefore see
// contention resolve exactly as in hardware lockstep; a single core is
// the one-element case. The cores start in step (at the same cycle).
//
// The stall fast-forward (ff.go) defers each core on its own: after a
// cycle in which the core made no progress, its due cycle becomes the
// next cycle at which it can act (dueCycle). Until then it is not stepped
// at all, and the deferred stretch is integrated in one skipTo when it
// comes due. When every live core is deferred, the lockstep clock jumps
// (jumpClock). Cores couple only through their shared-LLC/DRAM accesses
// and a deferred core makes none, so every step sees the same shared
// state, at the same cycle and in the same core order, as in the
// cycle-by-cycle run: results are byte-identical (DESIGN.md §7). Per-core
// deferral is what makes the skip pay on a chip, where co-runners' stall
// windows rarely line up. A core with no pending event at all keeps
// ticking, so the watchdog sees the deadlock, and a core whose
// fast-forward is off (SetStallFastForward) steps every cycle.
//
// It returns an error naming every unfinished core when no core commits
// for watchdogWindow ticked lockstep cycles.
//
//rarlint:hot
func Lockstep(cores []*Core, target uint64) error {
	var now uint64
	live := 0
	for _, c := range cores {
		c.commitBarrier = target
		now = max(now, c.cycle)
		if c.s.Committed < target {
			live++
		}
	}
	var ticked, lastCommit uint64
	var next uint64 // earliest due cycle of the live cores; none before the first cycle
	for live > 0 {
		if next > now+1 {
			now = jumpClock(cores, now, target, next)
		}
		now++
		next = noEvent
		committed := false
		for _, c := range cores {
			if c.s.Committed >= target {
				continue // finished
			}
			if c.due > now {
				next = min(next, c.due)
				continue // deferred: cannot act this cycle
			}
			if c.cycle+1 < now {
				c.skipTo(now - 1)
			}
			before := c.s.Committed
			c.step()
			if c.s.Committed != before {
				committed = true
			}
			if c.due == 0 || c.noFF || c.progress != c.progMark {
				c.progMark = c.progress
				c.due = now + 1 // first step of a run, busy, or fast-forward off
			} else if c.due = c.dueCycle(); c.due == noEvent {
				c.due = now + 1 // no pending event: tick on for the watchdog
			}
			if c.s.Committed >= target {
				live--
			} else {
				next = min(next, c.due)
			}
		}
		ticked++
		if committed {
			lastCommit = ticked
		} else if ticked-lastCommit > watchdogWindow {
			//rarlint:allow hotalloc fatal deadlock exit, never taken on a healthy run
			return deadlock(cores, target, now)
		}
	}
	return nil
}

// deadlock reports a Lockstep run that ticked watchdogWindow cycles
// without a commit, naming every core still short of target.
func deadlock(cores []*Core, target, now uint64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "core: deadlock: no commit for %d ticked cycles at cycle %d", watchdogWindow, now)
	for i, c := range cores {
		if c.s.Committed < target {
			fmt.Fprintf(&b, "; core %d (core=%s bench=%s scheme=%s committed=%d rob=%d iq=%d frontQ=%d mode=%d ffSkipped=%d)",
				i, c.s.CoreName, c.s.Benchmark, c.s.Scheme, c.s.Committed,
				c.robCount, c.iqLive, c.frontQ.len(), c.mode, c.ffSkipped)
		}
	}
	return errors.New(b.String())
}

// step advances the core by exactly one cycle; it is the only copy of the
// per-cycle stage sequence, and Lockstep is its only caller.
func (c *Core) step() {
	c.cycle++
	c.ledger.SetCycle(c.cycle)
	if c.injNext < len(c.injSamples) {
		c.processInjections()
	}
	c.tickBlocked()
	c.completeStage()
	c.commitStage()
	c.modeStage()
	c.issueStage()
	c.dispatchStage()
	c.fetchStage()
	c.drainStores()
	if c.auditEvery > 0 && c.cycle%c.auditEvery == 0 {
		c.audit() //rarlint:allow hotalloc audits are opt-in debugging, off in production sweeps
	}
}

// Committed returns the number of instructions committed so far.
func (c *Core) Committed() uint64 { return c.s.Committed }

// Snapshot finalises and returns the current statistics without ending
// the simulation.
func (c *Core) Snapshot() Stats {
	c.finalizeStats()
	return c.s
}

// wholeRunStatsFields lists the numeric Stats fields that describe the
// whole run (or its static configuration) rather than accumulating
// cycle-by-cycle, and that sub therefore deliberately does NOT subtract:
//
//   - CommitHash: the architectural commit-stream fingerprint. A hash is
//     not a counter — "measured minus warmup" has no meaning for it, and
//     cross-scheme determinism checks want the whole-run value.
//   - TotalBits: the bit capacity of the tracked structures, fixed at
//     construction. Subtracting it would zero the AVF denominator.
//
// TestStatsSubCoversAllFields walks Stats by reflection and fails if any
// numeric field is neither subtracted by sub nor listed here — so adding a
// counter to Stats (or mem.Stats) without updating sub cannot silently
// leak warmup into measured results again.
var wholeRunStatsFields = map[string]bool{
	"CommitHash": true,
	"TotalBits":  true,
}

// sub returns the counter-wise difference s-w, for warmup exclusion.
// Fields in wholeRunStatsFields are deliberately not subtracted.
func (s Stats) sub(w Stats) Stats {
	out := s
	out.Cycles -= w.Cycles
	out.Committed -= w.Committed
	out.CommittedLoads -= w.CommittedLoads
	out.CommittedStores -= w.CommittedStores
	out.CommittedBranches -= w.CommittedBranches
	out.Mispredicts -= w.Mispredicts
	out.WrongPathFetched -= w.WrongPathFetched
	out.RunaheadEntries -= w.RunaheadEntries
	out.RunaheadCycles -= w.RunaheadCycles
	out.RunaheadExecuted -= w.RunaheadExecuted
	out.RunaheadDropped -= w.RunaheadDropped
	out.Flushes -= w.Flushes
	out.TotalFetched -= w.TotalFetched
	out.TotalDispatched -= w.TotalDispatched
	out.TotalIssued -= w.TotalIssued
	out.HeadBlockedCycles -= w.HeadBlockedCycles
	out.FullStallCycles -= w.FullStallCycles
	for i := range out.ABC {
		out.ABC[i] -= w.ABC[i]
	}
	out.TotalABC -= w.TotalABC
	out.HeadBlockedABC -= w.HeadBlockedABC
	out.FullStallABC -= w.FullStallABC
	out.Mem.DemandLoads -= w.Mem.DemandLoads
	out.Mem.DemandLLCMisses -= w.Mem.DemandLLCMisses
	out.Mem.LLCMissCycles -= w.Mem.LLCMissCycles
	out.Mem.LLCBusyCycles -= w.Mem.LLCBusyCycles
	out.Mem.DRAMReads -= w.Mem.DRAMReads
	out.Mem.DRAMWrites -= w.Mem.DRAMWrites
	out.Mem.PrefetchIssued -= w.Mem.PrefetchIssued
	out.Mem.MSHRFullStalls -= w.Mem.MSHRFullStalls
	return out
}

// tickBlocked runs one cycle of the blocked-cycle accounting and tracks
// the ROB head for the countdown timers: headSince restarts whenever a new
// uop reaches the head.
func (c *Core) tickBlocked() {
	c.accountBlocked(1)
	head := c.robHeadUop()
	if head == nil {
		c.headSeq, c.headSince = 0, c.cycle
		return
	}
	if head.seq != c.headSeq {
		c.headSeq = head.seq
		c.headSince = c.cycle
	}
}

// accountBlocked advances the per-cycle accounting of the current blocking
// state by n cycles: the Figure 5 attribution counters, the ACE ledger's
// blocked-cycle integrals and the RunaheadCycles meter. tickBlocked calls
// it with n = 1 every cycle; bulkAdvance with the width of a skipped
// window, over which the state is frozen.
func (c *Core) accountBlocked(n uint64) {
	head := c.robHeadUop()
	headBlocked := head != nil && head.isLoad() && head.state == uopIssued && head.longLat
	fullStall := headBlocked && c.robCount == c.cfg.ROB
	c.ledger.Advance(headBlocked, fullStall, n)
	if headBlocked {
		c.s.HeadBlockedCycles += n
	}
	if fullStall {
		c.s.FullStallCycles += n
	}
	if c.mode == modeRunahead {
		c.s.RunaheadCycles += n
	}
}

//rarlint:pure
func (c *Core) robHeadUop() *uop {
	if c.robCount == 0 {
		return nil
	}
	return c.arena.at(c.rob[c.robHead])
}

// robSlot returns the ring index of the k-th oldest ROB entry; k ==
// robCount is the tail slot, where dispatch writes next.
func (c *Core) robSlot(k int) int {
	// Both operands are < ROB, so one conditional subtraction replaces the
	// integer division the compiler would emit for % (ROB is not a power
	// of two, and the tail slot is needed for every dispatched uop).
	t := c.robHead + k
	if t >= c.cfg.ROB {
		t -= c.cfg.ROB
	}
	return t
}

func (c *Core) finalizeStats() {
	c.s.Cycles = c.cycle
	c.s.ABC = c.ledger.ABC()
	c.s.TotalABC = c.ledger.TotalABC()
	c.s.HeadBlockedABC = c.ledger.HeadBlockedABC()
	c.s.FullStallABC = c.ledger.FullStallABC()
	c.s.Mem = c.hier.Snapshot()
}

// CycleCount returns the total cycles simulated so far (including any
// warmup portion excluded from Stats).
func (c *Core) CycleCount() uint64 { return c.cycle }

// EnableTimeline turns on windowed ACE accounting: the ledger buckets
// committed ACE bit-cycles into windowCycles-wide windows, for AVF
// phase-behaviour analysis. Call before Run; read with Timeline.
func (c *Core) EnableTimeline(windowCycles uint64) {
	c.ledger.EnableTimeline(windowCycles)
}

// Timeline returns the windowed ABC series (nil unless EnableTimeline was
// called).
func (c *Core) Timeline() []ace.Window { return c.ledger.Timeline() }

// Hierarchy exposes the memory system (tests and tools).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Predictor exposes the branch predictor (tests and tools).
func (c *Core) Predictor() *branch.Predictor { return c.bp }
