package branch

// Loop predictor: recognises branches that are taken a constant number of
// times and then fall through (loop back-edges with fixed trip counts),
// and overrides TAGE with high confidence once the trip count has been
// confirmed. This is the "L" of TAGE-SC-L.

const (
	loopEntries  = 64
	loopTagBits  = 12
	confThresh   = 3 // confirmations before the loop predictor may override
	maxTripCount = 1 << 14
)

type loopEntry struct {
	tag        uint16
	tripCount  uint16 // learned iteration count
	currentIt  uint16 // speculation-free running count (commit order)
	confidence uint8
	age        uint8
	valid      bool
}

type loopPredictor struct {
	entries [loopEntries]loopEntry
}

func (lp *loopPredictor) lookup(pc uint64) (idx int, hit bool) {
	idx = int((pc >> 2) % loopEntries)
	e := &lp.entries[idx]
	hit = e.valid && e.tag == uint16((pc>>8)&((1<<loopTagBits)-1))
	return idx, hit
}

// predict returns (prediction, confident) for the branch at pc, using
// commit-order iteration counts. The prediction is "taken" until the
// learned trip count is reached.
func (lp *loopPredictor) predict(pc uint64, info *Info) (bool, bool) {
	idx, hit := lp.lookup(pc)
	info.loopIdx = uint8(idx)
	info.loopHit = hit
	if !hit {
		return false, false
	}
	e := &lp.entries[idx]
	return e.currentIt+1 < e.tripCount, e.confidence >= confThresh
}

// update trains the loop predictor with a committed outcome.
func (lp *loopPredictor) update(pc uint64, taken bool, info *Info) {
	e := &lp.entries[info.loopIdx]
	tag := uint16((pc >> 8) & ((1 << loopTagBits) - 1))
	if !info.loopHit {
		// Allocate on a not-taken outcome (potential loop exit) if the
		// slot is cold.
		if !taken {
			return
		}
		if e.valid && e.age > 0 {
			e.age--
			return
		}
		*e = loopEntry{tag: tag, valid: true, age: 7, tripCount: 0, currentIt: 1}
		return
	}
	if taken {
		if e.currentIt < maxTripCount-1 {
			e.currentIt++
		} else {
			e.valid = false // not a bounded loop
		}
		return
	}
	// Loop exit: check the trip count.
	observed := e.currentIt + 1
	if e.tripCount == observed {
		if e.confidence < 7 {
			e.confidence++
		}
		if e.age < 7 {
			e.age++
		}
	} else {
		e.tripCount = observed
		e.confidence = 0
	}
	e.currentIt = 0
}
