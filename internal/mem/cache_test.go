package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestLineAddr(t *testing.T) {
	if LineAddr(0x12345) != 0x12340 {
		t.Errorf("LineAddr = %#x", LineAddr(0x12345))
	}
	f := func(a uint64) bool {
		la := LineAddr(a)
		return la%LineSize == 0 && la <= a && a-la < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("t", 4<<10, 4, 3)
	if _, hit := c.Lookup(0x1000, 10, false); hit {
		t.Error("cold cache must miss")
	}
	c.Insert(0x1000, 10, 10, false)
	avail, hit := c.Lookup(0x1000, 20, false)
	if !hit || avail != 23 {
		t.Errorf("hit avail = %d,%v want 23", avail, hit)
	}
	// Same line, different offset: still a hit.
	if _, hit := c.Lookup(0x1038, 20, false); !hit {
		t.Error("same-line access must hit")
	}
	if c.Misses() != 1 || c.Accesses() != 3 {
		t.Errorf("stats: %d/%d", c.Misses(), c.Accesses())
	}
}

func TestCacheInFlightFill(t *testing.T) {
	c := NewCache("t", 4<<10, 4, 3)
	c.Insert(0x2000, 500, 10, false) // fill completes at cycle 500
	avail, hit := c.Lookup(0x2000, 100, false)
	if !hit || avail != 500 {
		t.Errorf("in-flight merge avail = %d, want 500", avail)
	}
	avail, _ = c.Lookup(0x2000, 600, false)
	if avail != 603 {
		t.Errorf("post-fill avail = %d, want 603", avail)
	}
}

func TestCacheLRU(t *testing.T) {
	// 2-way cache with 64-byte lines: 2 sets of 2 ways at 256 bytes.
	c := NewCache("t", 256, 2, 1)
	setStride := uint64(2 * LineSize) // addresses mapping to set 0
	a, b, d := uint64(0), setStride*2, setStride*4
	c.Insert(a, 0, 1, false)
	c.Insert(b, 0, 2, false)
	c.Lookup(a, 3, false) // refresh a: b becomes LRU
	victim, wb := c.Insert(d, 0, 4, false)
	if wb {
		t.Error("clean victim must not write back")
	}
	if victim != b {
		t.Errorf("victim = %#x, want %#x", victim, b)
	}
	if _, hit := c.Lookup(a, 5, false); !hit {
		t.Error("a must survive")
	}
	if _, hit := c.Lookup(b, 5, false); hit {
		t.Error("b must be evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache("t", 256, 2, 1)
	setStride := uint64(2 * LineSize)
	c.Insert(0, 0, 1, true) // dirty
	c.Insert(setStride*2, 0, 2, false)
	victim, wb := c.Insert(setStride*4, 0, 3, false)
	if !wb || victim != 0 {
		t.Errorf("dirty eviction: victim=%#x wb=%v", victim, wb)
	}
}

func TestCacheMarkDirtyOnLookup(t *testing.T) {
	c := NewCache("t", 256, 2, 1)
	c.Insert(0, 0, 1, false)
	c.Lookup(0, 2, true) // store hit dirties the line
	c.Insert(2*LineSize*2, 0, 3, false)
	_, wb := c.Insert(2*LineSize*4, 0, 4, false)
	if !wb {
		t.Error("store-dirtied line must write back")
	}
}

func TestCacheContains(t *testing.T) {
	c := NewCache("t", 4<<10, 4, 3)
	if c.Contains(0x40) {
		t.Error("empty cache contains nothing")
	}
	c.Insert(0x40, 0, 1, false)
	if !c.Contains(0x40) || !c.Contains(0x7f) {
		t.Error("line must be present")
	}
	acc := c.Accesses()
	c.Contains(0x40)
	if c.Accesses() != acc {
		t.Error("Contains must not count as an access")
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count must panic")
		}
	}()
	NewCache("bad", 3*LineSize, 1, 1)
}

// Property: inserting N distinct lines into a set never exceeds the
// associativity — exactly ways lines survive, and the survivors are the
// most recently used.
func TestCacheSetBound(t *testing.T) {
	f := func(n uint8) bool {
		c := NewCache("t", 512, 4, 1) // 2 sets x 4 ways
		count := int(n%32) + 8
		for i := 0; i < count; i++ {
			addr := uint64(i) * 2 * LineSize // all map to set 0
			c.Insert(addr, 0, uint64(i), false)
		}
		hits := 0
		for i := 0; i < count; i++ {
			if c.Contains(uint64(i) * 2 * LineSize) {
				hits++
			}
		}
		if hits != 4 {
			return false
		}
		// The last 4 inserted must be the survivors.
		for i := count - 4; i < count; i++ {
			if !c.Contains(uint64(i) * 2 * LineSize) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCacheLineSize pins a cache line at 24 bytes: valid and dirty live
// in the tag word, and the tag arrays are most of what a cell allocates.
func TestCacheLineSize(t *testing.T) {
	if n := unsafe.Sizeof(cacheLine{}); n != 24 {
		t.Errorf("cacheLine is %d bytes, want 24", n)
	}
}

// refLine and refCache are the unpacked cache this package had before
// valid and dirty moved into the tag word: the reference the packed
// lines must match.
type refLine struct {
	tag, readyAt, lastUse uint64
	valid, dirty          bool
}

type refCache struct {
	ways    int
	setMask uint64
	latency uint64
	lines   []refLine
}

func (c *refCache) set(addr uint64) []refLine {
	s := (addr >> lineShift) & c.setMask
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

func (c *refCache) lookup(addr, now uint64, markDirty bool) (uint64, bool) {
	tag := addr >> lineShift
	for i, set := 0, c.set(addr); i < len(set); i++ {
		if l := &set[i]; l.valid && l.tag == tag {
			l.lastUse = now
			l.dirty = l.dirty || markDirty
			return max(now+c.latency, l.readyAt), true
		}
	}
	return 0, false
}

func (c *refCache) insert(addr, readyAt, now uint64, dirty bool) (uint64, bool) {
	tag := addr >> lineShift
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.readyAt = min(l.readyAt, readyAt)
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
	va, wb := victim.tag<<lineShift, victim.valid && victim.dirty
	*victim = refLine{tag: tag, readyAt: readyAt, lastUse: now, valid: true, dirty: dirty}
	return va, wb
}

// TestCachePackedMatchesReference drives the packed cache and the
// unpacked reference with the same random lookups, inserts and probes,
// over addresses that reach the top bits a tag can hold, and checks that
// every result agrees.
func TestCachePackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := NewCache("L1D", 4*4*LineSize, 4, 3) // 4 sets x 4 ways: heavy eviction
		ref := &refCache{ways: c.ways, setMask: c.setMask, latency: c.latency, lines: make([]refLine, len(c.lines))}
		// A small pool of lines, some near the top of the address space,
		// so the same lines keep hitting, merging and being evicted.
		pool := make([]uint64, 24)
		for i := range pool {
			pool[i] = rng.Uint64()
			if i%3 == 0 {
				pool[i] &= 1<<16 - 1
			}
		}
		for now := uint64(1); now < 2000; now++ {
			addr := pool[rng.Intn(len(pool))] + uint64(rng.Intn(LineSize))
			dirty := rng.Intn(3) == 0
			switch rng.Intn(3) {
			case 0:
				a1, h1 := c.Lookup(addr, now, dirty)
				a2, h2 := ref.lookup(addr, now, dirty)
				if a1 != a2 || h1 != h2 {
					t.Fatalf("trial %d cycle %d: Lookup(%#x) = %d,%v, reference %d,%v", trial, now, addr, a1, h1, a2, h2)
				}
			case 1:
				ready := now + uint64(rng.Intn(300))
				v1, w1 := c.Insert(addr, ready, now, dirty)
				v2, w2 := ref.insert(addr, ready, now, dirty)
				if v1 != v2 || w1 != w2 {
					t.Fatalf("trial %d cycle %d: Insert(%#x) = %#x,%v, reference %#x,%v", trial, now, addr, v1, w1, v2, w2)
				}
			default:
				want := false
				for _, l := range ref.set(addr) {
					want = want || l.valid && l.tag == addr>>lineShift
				}
				if got := c.Contains(addr); got != want {
					t.Fatalf("trial %d cycle %d: Contains(%#x) = %v, reference %v", trial, now, addr, got, want)
				}
			}
		}
	}
}
