package core

import (
	"sort"

	"rarsim/internal/ace"
)

// Fault-injection support: statistical soft-error injection as an
// independent check on the ACE-analysis ledger (the paper's footnote 1
// discusses fault injection as the alternative methodology).
//
// A sample names a (cycle, structure, slot). When simulation time reaches
// the cycle, the occupant of the slot — if any, and if the slot is inside
// its vulnerability window — is tagged. The outcome resolves with the
// occupant's fate: commit means the flipped bit would have corrupted
// architectural state (the bit was ACE); a squash of any kind means the
// error was benign. Injection is purely observational: it never perturbs
// timing, so hundreds of samples resolve in a single deterministic run.

// InjectOutcome classifies one injection sample.
type InjectOutcome uint8

const (
	// InjectPending: not yet reached or not yet resolved.
	InjectPending InjectOutcome = iota
	// InjectMasked: the slot was empty, architecturally protected, or
	// outside its vulnerability window (e.g. an issued IQ entry, a NOP).
	InjectMasked
	// InjectSquashed: the occupant was speculative and was squashed —
	// wrong path, runahead state, or a pipeline flush discarded it.
	InjectSquashed
	// InjectCorrupt: the occupant committed; the flipped bit reached
	// architectural state. The bit was ACE.
	InjectCorrupt
)

// String names the outcome.
func (o InjectOutcome) String() string {
	switch o {
	case InjectPending:
		return "pending"
	case InjectMasked:
		return "masked"
	case InjectSquashed:
		return "squashed"
	case InjectCorrupt:
		return "corrupt"
	}
	return "outcome?"
}

// InjectSample is one fault-injection trial.
type InjectSample struct {
	// Cycle is when the fault strikes.
	Cycle uint64
	// Structure is the target structure (ROB, IQ, LQ, SQ or RF; FU
	// occupancy is transient and not sampled).
	Structure ace.Structure
	// Slot is the physical entry index within the structure.
	Slot int
	// Outcome is filled in by the simulation.
	Outcome InjectOutcome
}

// InjectSamples arms the core with injection trials. Must be called
// before Run; the slice is sorted by cycle and updated in place.
func (c *Core) InjectSamples(samples []InjectSample) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Cycle < samples[j].Cycle })
	c.injSamples = samples
	c.injNext = 0
}

// injTag records that the uop in arena slot r carries the fault of sample
// injSamples[sample]. The tag is resolved, and dropped, when that uop
// commits or is squashed, before the slot can be reused, so it needs no
// seq guard.
type injTag struct {
	r      uopRef
	sample int32
}

// processInjections fires every sample whose cycle has arrived.
func (c *Core) processInjections() {
	for c.injNext < len(c.injSamples) && c.injSamples[c.injNext].Cycle <= c.cycle {
		i := c.injNext
		c.injNext++
		s := &c.injSamples[i]
		r := c.injectOccupant(s.Structure, s.Slot)
		if r == noUop {
			s.Outcome = InjectMasked
			continue
		}
		c.injTags = append(c.injTags, injTag{r, int32(i)})
	}
}

// injectOccupant finds the uop whose vulnerable state occupies the slot at
// the current cycle, or noUop when the slot holds no ACE-candidate state.
func (c *Core) injectOccupant(st ace.Structure, slot int) uopRef {
	switch st {
	case ace.ROB:
		if slot < 0 || slot >= c.cfg.ROB {
			return noUop
		}
		r := c.rob[slot]
		if r == noUop || c.arena.at(r).inst.IsNop() {
			return noUop // empty, or un-ACE by definition
		}
		return r
	case ace.IQ:
		// The issue queue's entries are exactly the waiting uops, packed
		// in seq order; an entry is vulnerable from dispatch to issue.
		return c.iqEntry(slot)
	case ace.LQ:
		// Address/data fields are vulnerable from execute to commit.
		n := 0
		for i := 0; i < c.robCount; i++ {
			r := c.rob[c.robSlot(i)]
			if u := c.arena.at(r); !u.inLQ || u.state == uopDispatched {
				continue
			}
			if n == slot {
				return r
			}
			n++
		}
		return noUop
	case ace.SQ:
		n := 0
		for _, r := range c.sqList[:c.sqLen] {
			if u := c.arena.at(r); u.state == uopDispatched || u.state == uopDead {
				continue
			}
			if n == slot {
				return r
			}
			n++
		}
		return noUop
	case ace.RF:
		// A physical register is vulnerable from writeback until its
		// producer commits. Architectural registers are ECC-protected
		// (§IV-A), so committed values are masked.
		for i := 0; i < c.robCount; i++ {
			r := c.rob[c.robSlot(i)]
			if u := c.arena.at(r); u.dest == int16(slot) && u.state == uopCompleted {
				return r
			}
		}
		return noUop
	}
	return noUop
}

// resolveInjections marks the pending samples tagged onto the uop in slot
// r with the outcome and drops their tags.
func (c *Core) resolveInjections(r uopRef, o InjectOutcome) {
	kept := c.injTags[:0]
	for _, t := range c.injTags {
		if t.r != r {
			kept = append(kept, t)
			continue
		}
		if c.injSamples[t.sample].Outcome == InjectPending {
			c.injSamples[t.sample].Outcome = o
		}
	}
	c.injTags = kept
}

// release resolves any pending injection tags of the uop in slot r as
// squashed and returns the slot to the arena. Every terminal path for a
// uop goes through here; commit resolves Corrupt explicitly beforehand.
func (c *Core) release(r uopRef) {
	if len(c.injTags) > 0 {
		c.resolveInjections(r, InjectSquashed)
	}
	if s := c.arena.at(r).bpSnap; s >= 0 {
		c.bpSnapFree[c.bpSnapFreeN] = s
		c.bpSnapFreeN++
	}
	c.arena.put(r)
}
