package branch

// TAGE proper: a bimodal base predictor plus nTables tagged components
// indexed by hashes of geometrically increasing history lengths. Prediction
// comes from the hitting component with the longest history; allocation on
// mispredictions steals weakly-useful entries in longer components.

const (
	nTables     = 6
	logBimodal  = 13 // 8K-entry bimodal
	logTagged   = 10 // 1K entries per tagged table
	tagBits     = 10
	ctrMax      = 3 // 3-bit signed counter range [-4,3]
	ctrMin      = -4
	uMax        = 3
	resetPeriod = 1 << 18 // usefulness aging period, in updates
)

// historyLens are the geometric history lengths of the tagged tables.
var historyLens = [nTables]int{4, 9, 18, 36, 72, 144}

type taggedEntry struct {
	ctr int8 // signed direction counter
	tag uint16
	u   uint8 // usefulness
}

// Info carries the per-prediction state Update needs from Predict to
// commit: the provider chain, and every table slot the prediction read.
// The core stores it in the in-flight branch's uop and hands it back at
// commit, so it holds nothing else, in the narrowest types that fit.
type Info struct {
	idx      [nTables]uint16 // tagged-table indices (logTagged bits)
	tag      [nTables]uint16 // tagged-table tags (tagBits bits)
	scIdx    [scTables]uint16
	bimIdx   uint16
	provider int8  // hitting table (0..nTables-1), -1 = bimodal
	loopIdx  uint8 // loop-predictor slot
	altPred  bool  // prediction of the alternate component
	tagePred bool  // prediction of the provider component
	loopHit  bool
}

type tage struct {
	bimodal []int8 // 2-bit counters, range [-2,1]
	tables  [nTables][]taggedEntry
	hist    history

	useAltOnNA int8 // prefer altpred when provider entry is "newly allocated"
	tick       int
	rnd        uint64 // private xorshift for allocation randomisation
}

func newTAGE() *tage {
	t := &tage{
		bimodal: make([]int8, 1<<logBimodal),
	}
	for i := range t.tables {
		t.tables[i] = make([]taggedEntry, 1<<logTagged)
	}
	t.rnd = 0x853c49e6748fea9b
	return t
}

func (t *tage) nextRand() uint64 {
	t.rnd ^= t.rnd << 13
	t.rnd ^= t.rnd >> 7
	t.rnd ^= t.rnd << 17
	return t.rnd
}

// predict computes the TAGE prediction for pc and records provider state
// into info.
func (t *tage) predict(pc uint64, info *Info) bool {
	info.bimIdx = uint16(pc>>2) & (1<<logBimodal - 1)
	bimPred := t.bimodal[info.bimIdx] >= 0

	h := &t.hist
	pcIdx := uint32(pc>>2) ^ uint32(pc>>(2+logTagged))
	for i := 0; i < nTables; i++ {
		f := h.idxFold(i)
		ph := uint32(h.phist) & (1<<min(historyLens[i], 16) - 1)
		info.idx[i] = uint16((pcIdx ^ f ^ ph) & (1<<logTagged - 1))
		info.tag[i] = uint16((uint32(pc>>2) ^ f ^ h.tagFold(i)<<1) & (1<<tagBits - 1))
	}
	provider, altProvider := -1, -1
	for i := nTables - 1; i >= 0; i-- {
		if t.tables[i][info.idx[i]].tag == info.tag[i] {
			if provider < 0 {
				provider = i
			} else {
				altProvider = i
				break
			}
		}
	}
	info.provider = int8(provider)

	info.altPred = bimPred
	if altProvider >= 0 {
		info.altPred = t.tables[altProvider][info.idx[altProvider]].ctr >= 0
	}
	if provider < 0 {
		info.tagePred = bimPred
		return bimPred
	}
	e := &t.tables[provider][info.idx[provider]]
	info.tagePred = e.ctr >= 0
	// Newly allocated entries (weak counter, zero usefulness) are
	// unreliable; optionally trust the alternate prediction instead.
	weak := (e.ctr == 0 || e.ctr == -1) && e.u == 0
	if weak && t.useAltOnNA >= 0 {
		return info.altPred
	}
	return info.tagePred
}

// update trains TAGE with the committed outcome. info must be the Info
// produced by predict for this branch instance.
func (t *tage) update(pc uint64, taken bool, info *Info) {
	provider := int(info.provider)
	// Allocation: on a misprediction by the provider chain, try to
	// allocate an entry in a table with a longer history.
	if info.tagePred != taken && provider < nTables-1 {
		start := provider + 1
		allocated := false
		// Randomise the starting candidate slightly to avoid ping-pong.
		if start < nTables-1 && t.nextRand()&1 == 0 {
			start++
		}
		for i := start; i < nTables; i++ {
			e := &t.tables[i][info.idx[i]]
			if e.u == 0 {
				e.tag = info.tag[i]
				e.u = 0
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			// Nothing stealable: age the candidates so a future
			// allocation succeeds.
			for i := provider + 1; i < nTables; i++ {
				e := &t.tables[i][info.idx[i]]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	// Train the provider (or the bimodal table on a total miss).
	if provider >= 0 {
		e := &t.tables[provider][info.idx[provider]]
		bumpCtr(&e.ctr, taken)
		// Track whether "use alt on newly allocated" helps.
		weak := e.u == 0
		if weak && info.tagePred != info.altPred {
			if info.tagePred == taken && t.useAltOnNA > -64 {
				t.useAltOnNA--
			} else if info.altPred == taken && t.useAltOnNA < 63 {
				t.useAltOnNA++
			}
		}
		// Usefulness: provider was right where the alternate was wrong.
		if info.tagePred == taken && info.altPred != taken && e.u < uMax {
			e.u++
		}
		if info.tagePred != taken && info.altPred == taken && e.u > 0 {
			e.u--
		}
		// Keep the bimodal table warm as the fallback.
		if provider == 0 || info.altPred != taken {
			bumpBimodal(&t.bimodal[info.bimIdx], taken)
		}
	} else {
		bumpBimodal(&t.bimodal[info.bimIdx], taken)
	}

	// Periodic usefulness aging.
	t.tick++
	if t.tick >= resetPeriod {
		t.tick = 0
		for i := range t.tables {
			for j := range t.tables[i] {
				t.tables[i][j].u >>= 1
			}
		}
	}
}

func bumpCtr(c *int8, taken bool) {
	if taken {
		if *c < ctrMax {
			*c++
		}
	} else if *c > ctrMin {
		*c--
	}
}

func bumpBimodal(c *int8, taken bool) {
	if taken {
		if *c < 1 {
			*c++
		}
	} else if *c > -2 {
		*c--
	}
}
