// Package sim exercises the ffsound analyzer: every field the stage
// closures write must be read by a next-event source (so a pending
// change always bounds the fast-forward skip) or carry a
// //rarlint:quiescent waiver — and a waiver on a field that is in fact
// covered (or never stage-written) is itself stale and reported.
package sim

type machine struct {
	// fillAt is stage-written and read by nextEventCycle: covered. This
	// is the pinned negative test — delete the fillAt read from
	// nextEventCycle below and ffsound must flag this line exactly the
	// way it flags retireAt.
	fillAt uint64
	// retireAt is stage-written but no next-event source reads it.
	retireAt uint64 //lintwant ffsound
	// commits is waived accounting.
	commits uint64 //rarlint:quiescent stat counter: aggregated post-run, never consulted by timing
	// deepWrite is written by a helper two calls below a stage.
	deepWrite uint64 //lintwant ffsound
	// covered is read by modeNextEvent and wrongly waived: stale.
	//lintwant ffsound
	covered uint64 //rarlint:quiescent wrongly waived: modeNextEvent reads this field
	// untouched is never stage-written and wrongly waived: stale.
	//lintwant ffsound
	untouched uint64 //rarlint:quiescent wrongly waived: no stage closure writes this field
	// bad is stage-written and its waiver has no reason: the malformed
	// directive is a lint finding and waives nothing, so the field's own
	// finding stands too.
	//lintwant lint
	//rarlint:quiescent
	bad uint64 //lintwant ffsound
	// mode is stage-written and read by modeNextEvent: covered.
	mode int
	// stats is a statistics struct, which ffsound does not audit.
	stats Stats
}

// Stats is a statistics struct: its stage-written counters need no
// quiescent waiver, and a waiver on one governs nothing audited.
type Stats struct {
	Fetched uint64
	//lintwant ffsound
	Stalls uint64 //rarlint:quiescent stat counter: aggregated post-run, never consulted by timing
}

func (m *machine) fetchStage() {
	m.fillAt = 10
	m.retireAt = 20
	m.commits++
	m.bad = 1
	m.stats.Fetched++
	m.stats.Stalls++
	m.bury()
}

func (m *machine) modeStage() {
	m.mode = 1
	m.covered = 5
}

func (m *machine) bury() { m.deepWrite++ }

func (m *machine) nextEventCycle() uint64 {
	//lintwant ffsound
	//rarlint:quiescent floating waiver attached to no audited field
	if m.fillAt != 0 {
		return m.fillAt
	}
	return m.modeNextEvent()
}

func (m *machine) modeNextEvent() uint64 {
	if m.mode != 0 {
		return m.covered
	}
	return ^uint64(0)
}
