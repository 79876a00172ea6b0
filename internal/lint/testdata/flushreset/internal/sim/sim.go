// Package sim exercises the flushreset analyzer: fields written on
// runahead paths (the writer closures) must be restored by some
// exit/flush closure, waived with //rarlint:survives, or reported — and
// a survives on a field that is in fact restored is itself stale.
package sim

type machine struct {
	// mode is written on entry and restored on exit: clean.
	mode int
	// specPC is runahead residue nothing restores.
	specPC uint64 //lintwant flushreset
	// count leaks by design and says so.
	count uint64 //rarlint:survives statistics counter: runahead activity is metered, not squashed
	// depth is written through a helper one call below the writer.
	depth int //lintwant flushreset
	// restored is runahead-written AND reset, so its waiver is stale.
	//lintwant flushreset
	restored uint64 //rarlint:survives wrongly waived: exitRunahead does restore this
	// stats is a statistics struct, which flushreset does not audit.
	stats Stats
}

// Stats is a statistics struct: its runahead-written counters need no
// survives waiver, and a waiver on one governs nothing audited.
type Stats struct {
	Entries uint64
	//lintwant flushreset
	Dropped uint64 //rarlint:survives statistics counter: runahead activity is metered, not squashed
}

type snapshot struct {
	pc  uint64
	rat [4]int16
}

func (m *machine) enterRunahead() {
	m.mode = 1
	m.specPC = 0x40
	m.count++
	m.bumpDepth()
	m.restored = 7
	m.stats.Entries++
	m.stats.Dropped++
}

func (m *machine) bumpDepth() { m.depth++ }

func (m *machine) exitRunahead() {
	m.mode = 0
	m.restored = 0
}

// dispatchRunahead writes snapshot fields; doFlush restores them by
// replacing the whole struct value, which counts for every field.
func (m *machine) dispatchRunahead(s *snapshot) {
	s.pc = 1
	s.rat[0] = 2
}

func (m *machine) doFlush(s *snapshot) {
	*s = snapshot{}
}

// use keeps the corpus honest under vet-style checks. The survives
// directive in its body is attached to nothing audited, governs
// nothing, and is reported.
func use(m *machine, s *snapshot) uint64 {
	m.enterRunahead()
	//lintwant flushreset
	//rarlint:survives floating waiver attached to no audited field
	m.dispatchRunahead(s)
	m.exitRunahead()
	m.doFlush(s)
	return m.specPC + uint64(m.depth) + m.count + m.restored + s.pc
}
