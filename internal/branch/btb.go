package branch

// BTB is a direct-mapped branch target buffer. The front-end consults it
// for predicted-taken branches; a BTB miss on a taken branch costs a
// front-end re-steer, modelled by the core as a short fetch bubble.
type BTB struct {
	entries []btbEntry
	mask    uint64
}

type btbEntry struct {
	tag    uint32
	target uint64
	valid  bool
}

// NewBTB builds a BTB with 2^logSize entries.
func NewBTB(logSize int) *BTB {
	return &BTB{
		entries: make([]btbEntry, 1<<logSize),
		mask:    (1 << logSize) - 1,
	}
}

// Lookup returns the stored target for the branch at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	e := &b.entries[(pc>>2)&b.mask]
	if e.valid && e.tag == uint32(pc>>2) {
		return e.target, true
	}
	return 0, false
}

// Insert records the taken target of the branch at pc.
func (b *BTB) Insert(pc, target uint64) {
	e := &b.entries[(pc>>2)&b.mask]
	*e = btbEntry{tag: uint32(pc >> 2), target: target, valid: true}
}
