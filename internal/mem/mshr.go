package mem

// MSHRs model the miss-status holding registers of a cache level: a small
// file of outstanding line misses. A second miss to an in-flight line
// merges with the existing entry; a miss that needs a new entry when the
// file is full must be retried later by the requester (the core replays
// the load).
type MSHRs struct {
	entries []mshrEntry
	size    int

	// live counts the valid entries and minFill is the earliest fillAt
	// among them (noFill while there are none). Every valid entry fills
	// at minFill or later, so before minFill nothing can be reaped and
	// every valid entry is outstanding: an access then reaps, counts and
	// bounds the file without scanning it.
	live    int
	minFill uint64

	full uint64 // accesses refused for want of a free entry (FullStalls)
}

type mshrEntry struct {
	line   uint64
	fillAt uint64
	valid  bool
}

// noFill is minFill's value while the file is empty.
const noFill = ^uint64(0)

// NewMSHRs builds a file with the given number of registers.
func NewMSHRs(size int) *MSHRs {
	return &MSHRs{entries: make([]mshrEntry, size), size: size, minFill: noFill}
}

// reap retires entries whose fill has completed by cycle now.
func (m *MSHRs) reap(now uint64) {
	if m.minFill > now {
		return
	}
	m.live, m.minFill = 0, noFill
	for i := range m.entries {
		e := &m.entries[i]
		if !e.valid {
			continue
		}
		if e.fillAt <= now {
			e.valid = false
			continue
		}
		m.live++
		m.minFill = min(m.minFill, e.fillAt)
	}
}

// Lookup reports whether the line holding addr is already outstanding and,
// if so, when its fill completes.
func (m *MSHRs) Lookup(addr, now uint64) (fillAt uint64, merged bool) {
	m.reap(now)
	if m.live == 0 {
		return 0, false
	}
	line := LineAddr(addr)
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].line == line {
			return m.entries[i].fillAt, true
		}
	}
	return 0, false
}

// Admit reports whether a new miss at cycle now can claim a register.
// When every register is outstanding the file is full: Admit counts a
// full stall and the requester must retry the access later.
func (m *MSHRs) Admit(now uint64) bool {
	if m.Outstanding(now) < m.size {
		return true
	}
	m.full++
	return false
}

// Allocate reserves a register for the line holding addr, filling at cycle
// fillAt. The requester must have been admitted at now.
func (m *MSHRs) Allocate(addr, now, fillAt uint64) {
	m.reap(now)
	for i := range m.entries {
		if !m.entries[i].valid {
			m.entries[i] = mshrEntry{line: LineAddr(addr), fillAt: fillAt, valid: true}
			m.live++
			m.minFill = min(m.minFill, fillAt)
			return
		}
	}
	panic("mem: Allocate on a full MSHR file")
}

// NextFillAt returns the earliest cycle after now at which an in-flight
// miss completes its fill, or ok=false when nothing is outstanding. The
// lockstep clock jump stays below it on cores that have finished and are
// no longer probed: every DRAM/LLC return time is registered here, so no
// data arrival of theirs can fall inside a jumped stretch. Read-only:
// unlike the access paths it does not reap expired entries.
func (m *MSHRs) NextFillAt(now uint64) (fillAt uint64, ok bool) {
	if m.live == 0 {
		return 0, false
	}
	if m.minFill > now {
		return m.minFill, true
	}
	for i := range m.entries {
		if !m.entries[i].valid || m.entries[i].fillAt <= now {
			continue
		}
		if !ok || m.entries[i].fillAt < fillAt {
			fillAt, ok = m.entries[i].fillAt, true
		}
	}
	return fillAt, ok
}

// Outstanding returns the number of in-flight misses at cycle now.
func (m *MSHRs) Outstanding(now uint64) int {
	if m.minFill > now {
		return m.live
	}
	n := 0
	for i := range m.entries {
		if m.entries[i].valid && m.entries[i].fillAt > now {
			n++
		}
	}
	return n
}

// FullStalls returns how many misses Admit turned away because the file
// was full.
func (m *MSHRs) FullStalls() uint64 { return m.full }
