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

// cacheLine is one way of a set, 24 bytes: the tag word holds the line
// address (addr >> lineShift, at most 58 bits) with the valid and dirty
// bits folded into its top two bits, so a hit is one compare and a cache
// allocates no padding for two bools.
type cacheLine struct {
	tag     uint64 // line address | lineValid | lineDirty; zero for a line never filled
	readyAt uint64 // cycle the fill completes; 0 for lines present "forever"
	lastUse uint64 // LRU timestamp
}

// The flag bits of cacheLine.tag.
const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
)

// Cache is one set-associative, write-back, write-allocate cache level.
type Cache struct {
	ways    int
	setMask uint64
	latency uint64
	lines   []cacheLine // sets*ways, way-major within a set

	// stats
	accesses uint64
	misses   uint64
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
	tag := addr>>lineShift | lineValid
	set := c.set(addr)
	for i := range set {
		l := &set[i]
		if l.tag&^lineDirty == tag {
			l.lastUse = now
			if markDirty {
				l.tag |= lineDirty
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
	tag := addr>>lineShift | lineValid
	for _, l := range c.set(addr) {
		if l.tag&^lineDirty == tag {
			return true
		}
	}
	return false
}

// Insert installs the line holding addr with the given fill-completion
// cycle, evicting the LRU way. It returns the victim's address and whether
// the victim was dirty (needs a writeback).
func (c *Cache) Insert(addr, readyAt, now uint64, dirty bool) (victimAddr uint64, writeback bool) {
	tag := addr>>lineShift | lineValid
	if dirty {
		tag |= lineDirty
	}
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if l.tag&^lineDirty == tag&^lineDirty {
			// Already present (racing fills merge).
			if readyAt < l.readyAt {
				l.readyAt = readyAt
			}
			l.tag |= tag & lineDirty
			return 0, false
		}
		if l.tag&lineValid == 0 {
			victim = l
			break
		}
		if l.lastUse < victim.lastUse {
			victim = l
		}
	}
	victimAddr = (victim.tag &^ (lineValid | lineDirty)) << lineShift
	writeback = victim.tag&(lineValid|lineDirty) == lineValid|lineDirty
	*victim = cacheLine{tag: tag, readyAt: readyAt, lastUse: now}
	return victimAddr, writeback
}

// Accesses returns the number of lookups performed.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.misses }
