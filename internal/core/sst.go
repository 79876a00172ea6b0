package core

// sst is the Stalling Slice Table of Precise Runahead Execution: a small
// PC-indexed table of the instructions that belong to the backward slices
// of stall-causing loads. During lean runahead, only loads and SST hits
// are dispatched for execution — everything else passes through the
// front-end and is dropped.
//
// Training happens in normal mode: when a load's access misses the LLC,
// the core walks the load's producer chain (recorded at rename time) and
// inserts the slice PCs. The table is modelled as direct-mapped with full
// PC tags; with the paper's 128 entries and the small static footprints of
// the workloads, conflicts are rare, which matches the paper's
// fully-associative 128-entry SST.
type sst struct {
	entries []uint64
	mask    uint64
}

func newSST(size int) *sst {
	// Round down to a power of two for cheap indexing.
	n := 1
	for n*2 <= size {
		n *= 2
	}
	return &sst{entries: make([]uint64, n), mask: uint64(n - 1)}
}

// sstIndex mixes high PC bits in so kernels at 1 MiB-aligned bases do not
// alias each other's slots.
func sstIndex(pc, mask uint64) uint64 { return ((pc >> 2) ^ (pc >> 9)) & mask }

func (s *sst) contains(pc uint64) bool { return s.entries[sstIndex(pc, s.mask)] == pc }

func (s *sst) insert(pc uint64) {
	if pc == 0 {
		return
	}
	s.entries[sstIndex(pc, s.mask)] = pc
}

// producers records, per static instruction, the PCs of the instructions
// that produced its sources — the dependence edges needed to extract
// backward slices. It is a direct-mapped structure updated at rename.
type producers struct {
	tags    []uint64
	sources [][2]uint64
	mask    uint64
}

func newProducers(logSize int) *producers {
	n := 1 << logSize
	return &producers{
		tags:    make([]uint64, n),
		sources: make([][2]uint64, n),
		mask:    uint64(n - 1),
	}
}

func (p *producers) record(pc, src1PC, src2PC uint64) {
	i := sstIndex(pc, p.mask)
	p.tags[i] = pc
	p.sources[i] = [2]uint64{src1PC, src2PC}
}

func (p *producers) lookup(pc uint64) ([2]uint64, bool) {
	i := sstIndex(pc, p.mask)
	if p.tags[i] != pc {
		return [2]uint64{}, false
	}
	return p.sources[i], true
}

// trainSlice walks the backward slice of the load at loadPC through the
// producer table, inserting up to maxSlice PCs into the SST, bounded by
// maxDepth dependence levels. Traversal state lives in fixed stack
// arrays: training fires on every LLC-missing load, far too often to
// build a fresh queue and visited map per call. Every enqueue pairs
// with an insert, so sliceScratch bounds both cursors; a maxSlice
// beyond the scratch is clamped (the single caller passes 16).
func trainSlice(s *sst, p *producers, loadPC uint64, maxDepth, maxSlice int) {
	type item struct {
		pc    uint64
		depth int
	}
	const sliceScratch = 32
	if maxSlice >= sliceScratch {
		maxSlice = sliceScratch - 1
	}
	var work [sliceScratch]item
	var seen [sliceScratch]uint64
	s.insert(loadPC)
	work[0] = item{loadPC, 0}
	wHead, wLen := 0, 1
	seen[0] = loadPC
	nSeen := 1
	inserted := 1
	for wHead < wLen && inserted < maxSlice {
		it := work[wHead]
		wHead++
		if it.depth >= maxDepth {
			continue
		}
		srcs, ok := p.lookup(it.pc)
		if !ok {
			continue
		}
	next:
		for _, spc := range srcs {
			if spc == 0 {
				continue
			}
			for i := 0; i < nSeen; i++ {
				if seen[i] == spc {
					continue next
				}
			}
			seen[nSeen] = spc
			nSeen++
			s.insert(spc)
			inserted++
			work[wLen] = item{spc, it.depth + 1}
			wLen++
		}
	}
}
