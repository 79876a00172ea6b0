// Package mem implements the simulated memory hierarchy: set-associative
// write-back caches with LRU replacement, miss-status holding registers
// (MSHRs) with secondary-miss merging at the L1D, a stride/stream hardware
// prefetcher (up to 16 streams, attachable at the LLC or at every level),
// and a DDR3-style DRAM model with page-interleaved banks served FCFS,
// open-row timing and data bus serialisation.
//
// The hierarchy is a timing model: caches store tags, not data. An access
// walks the levels at the moment the core executes the memory operation and
// returns the cycle at which the data arrives; lines are installed
// immediately with a readyAt timestamp, so later accesses to an in-flight
// line naturally merge with the outstanding fill.
package mem

// LineSize is the cache line size in bytes at every level.
const LineSize = 64

const lineShift = 6

// LineAddr returns the line-aligned address of addr.
func LineAddr(addr uint64) uint64 { return addr &^ (LineSize - 1) }

type cacheLine struct {
	tag uint64 //rarlint:quiescent memory-side state: advances only on stage-driven accesses; the stall-ending fill is covered by NextFillAt
	//rarlint:quiescent memory-side state: advances only on stage-driven accesses; the stall-ending fill is covered by NextFillAt
	readyAt uint64 // cycle the fill completes; 0 for lines present "forever"
	//rarlint:quiescent memory-side state: advances only on stage-driven accesses; the stall-ending fill is covered by NextFillAt
	lastUse uint64 // LRU timestamp
	valid   bool   //rarlint:quiescent memory-side state: advances only on stage-driven accesses; the stall-ending fill is covered by NextFillAt
	dirty   bool   //rarlint:quiescent memory-side state: advances only on stage-driven accesses; the stall-ending fill is covered by NextFillAt
}

// Cache is one set-associative, write-back, write-allocate cache level.
type Cache struct {
	ways    int
	setMask uint64
	latency uint64
	lines   []cacheLine // sets*ways, way-major within a set

	// stats
	accesses uint64 //rarlint:quiescent stat counter: aggregated into the report after the run, never consulted by timing decisions
	misses   uint64 //rarlint:quiescent stat counter: aggregated into the report after the run, never consulted by timing decisions
}

// NewCache builds a cache of sizeBytes with the given associativity and
// access latency (cycles). sizeBytes must be a multiple of ways*LineSize
// and the resulting set count must be a power of two; name ("L1D", "L2",
// ...) labels the panic when it is not.
func NewCache(name string, sizeBytes, ways int, latency uint64) *Cache {
	sets := sizeBytes / (ways * LineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: " + name + ": set count must be a power of two")
	}
	return &Cache{
		ways:    ways,
		setMask: uint64(sets - 1),
		latency: latency,
		lines:   make([]cacheLine, sets*ways),
	}
}

func (c *Cache) set(addr uint64) []cacheLine {
	s := (addr >> lineShift) & c.setMask
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// Lookup probes the cache at cycle now. On a hit it returns the cycle the
// data is available (now+latency, or later if the line's fill is still in
// flight) and refreshes LRU. markDirty sets the dirty bit on a hit.
func (c *Cache) Lookup(addr, now uint64, markDirty bool) (availAt uint64, hit bool) {
	c.accesses++
	tag := addr >> lineShift
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lastUse = now
			if markDirty {
				l.dirty = true
			}
			avail := now + c.latency
			if l.readyAt > avail {
				avail = l.readyAt
			}
			return avail, true
		}
	}
	c.misses++
	return 0, false
}

// Contains reports whether the line holding addr is present, without
// touching LRU or stats.
func (c *Cache) Contains(addr uint64) bool {
	tag := addr >> lineShift
	for i := range c.set(addr) {
		l := &c.set(addr)[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Insert installs the line holding addr with the given fill-completion
// cycle, evicting the LRU way. It returns the victim's address and whether
// the victim was dirty (needs a writeback).
func (c *Cache) Insert(addr, readyAt, now uint64, dirty bool) (victimAddr uint64, writeback bool) {
	tag := addr >> lineShift
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			// Already present (racing fills merge).
			if readyAt < l.readyAt {
				l.readyAt = readyAt
			}
			l.dirty = l.dirty || dirty
			return 0, false
		}
		if !l.valid {
			victim = l
			break
		}
		if l.lastUse < victim.lastUse {
			victim = l
		}
	}
	victimAddr, writeback = victim.tag<<lineShift, victim.valid && victim.dirty
	*victim = cacheLine{tag: tag, readyAt: readyAt, lastUse: now, valid: true, dirty: dirty}
	return victimAddr, writeback
}

// Accesses returns the number of lookups performed.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.misses }
