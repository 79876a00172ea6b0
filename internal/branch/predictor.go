package branch

// Predictor is the full direction predictor: TAGE + loop predictor + a
// small statistical-corrector-style confidence filter, plus the speculative
// history interface the core uses for squash recovery.

const (
	scTables = 2
	logSC    = 9 // 512 entries per SC table
	scThresh = 5
)

// scHistLens are the corrector tables' history lengths. Both fit in the
// recent-64 mirror.
var scHistLens = [scTables]int{8, 21}

// scFolds holds the corrector's history folds byte by byte:
// scFolds[t][k][v] is table t's fold of the history whose byte k is v and
// whose other bits are zero. The fold is linear over GF(2) (shifts and
// XORs only), so the fold of any history is the XOR of its three bytes'
// entries, bits past the table's length contributing nothing. Three loads
// replace a serial loop of up to 21 dependent steps on every prediction.
var scFolds = func() (f [scTables][3][256]uint16) {
	for t := range f {
		for k := range f[t] {
			for v := range f[t][k] {
				f[t][k][v] = uint16(scFoldSerial(uint64(v)<<(8*k), scHistLens[t]))
			}
		}
	}
	return f
}()

// scFoldSerial folds the newest n bits of history r (bit 0 = most recent
// outcome) down to logSC bits, one outcome per step.
func scFoldSerial(r uint64, n int) uint32 {
	var fold uint32
	for d := n; d > 0; d-- {
		fold = (fold << 1) | uint32(r&1)
		fold ^= fold >> logSC
		r >>= 1
	}
	return fold & (1<<logSC - 1)
}

// scFold returns corrector table t's fold of the history mirror r.
func scFold(r uint64, t int) uint32 {
	f := &scFolds[t]
	return uint32(f[0][uint8(r)] ^ f[1][uint8(r>>8)] ^ f[2][uint8(r>>16)])
}

// Predictor is the core-facing branch direction predictor. It is not safe
// for concurrent use; each simulated core owns one.
type Predictor struct {
	tage *tage
	loop loopPredictor
	sc   [scTables][]int8

	predictions uint64
}

// NewPredictor returns a freshly initialised predictor.
func NewPredictor() *Predictor {
	p := &Predictor{tage: newTAGE()}
	for i := range p.sc {
		p.sc[i] = make([]int8, 1<<logSC)
	}
	return p
}

// Predict returns the predicted direction for the conditional branch at pc
// and an Info token that must be returned to Update at commit time.
// Predict speculatively shifts the predicted outcome into the global
// history; use Snapshot/Restore to rewind on squash.
func (p *Predictor) Predict(pc uint64) (bool, Info) {
	pred, info := p.PredictNoShift(pc)
	p.ShiftHistory(pred, pc)
	return pred, info
}

// PredictNoShift computes the prediction without shifting it into the
// speculative history. It lets the core look at the prediction first and
// take a history Snapshot only when it will actually need one (the
// simulator knows the true outcome at fetch, so only mispredicted
// branches are ever rewound) before committing the shift with
// ShiftHistory. PredictNoShift followed by ShiftHistory(pred, pc) is
// exactly Predict.
func (p *Predictor) PredictNoShift(pc uint64) (bool, Info) {
	var info Info
	pred := p.tage.predict(pc, &info)

	// Statistical corrector: a compact GEHL vote that may overturn a
	// low-confidence TAGE prediction. Confident TAGE predictions (a
	// saturated provider counter) are never overridden — unconditional
	// correction costs more than it saves (the "SC" of TAGE-SC-L is
	// similarly confidence-gated).
	var sum int32
	r := p.hist().recent
	for i := 0; i < scTables; i++ {
		idx := (uint32(pc>>2) ^ scFold(r, i) ^ uint32(i)<<5) & (1<<logSC - 1)
		info.scIdx[i] = uint16(idx)
		sum += int32(p.sc[i][idx])
	}
	if pred {
		sum += 2
	} else {
		sum -= 2
	}
	if p.tageWeak(&info) {
		if sum >= scThresh {
			pred = true
		} else if sum <= -scThresh {
			pred = false
		}
	}

	// Loop predictor overrides everything once confident.
	if lpPred, confident := p.loop.predict(pc, &info); confident {
		pred = lpPred
	}

	return pred, info
}

// ShiftHistory speculatively shifts a prediction made by PredictNoShift
// into the global history and counts the prediction.
func (p *Predictor) ShiftHistory(pred bool, pc uint64) {
	p.hist().shift(pred, pc)
	p.predictions++
}

// tageWeak reports whether the TAGE prediction came from a weak counter
// (or the bare bimodal table) and is therefore eligible for statistical
// correction.
func (p *Predictor) tageWeak(info *Info) bool {
	if info.provider < 0 {
		c := p.tage.bimodal[info.bimIdx]
		return c == 0 || c == -1
	}
	c := p.tage.tables[info.provider][info.idx[info.provider]].ctr
	return c >= -2 && c <= 1
}

// Update trains all components with the committed outcome of the branch at
// pc. info must be the token Predict produced for this dynamic instance.
// Only committed (correct-path) branches may be passed to Update.
func (p *Predictor) Update(pc uint64, taken bool, info Info) {
	p.tage.update(pc, taken, &info)
	p.loop.update(pc, taken, &info)
	for i := 0; i < scTables; i++ {
		c := &p.sc[i][info.scIdx[i]]
		if taken {
			if *c < 31 {
				*c++
			}
		} else if *c > -32 {
			*c--
		}
	}
}

// Snapshot captures the speculative history state. The core takes one
// before each predicted branch so a squash can rewind precisely.
func (p *Predictor) Snapshot() Snapshot { return Snapshot{*p.hist()} }

// Restore rewinds the speculative history to s and then shifts in the now
// known outcome of the mispredicted branch (corrected=true when the squash
// is a branch misprediction repair; for a plain rewind — e.g. a runahead
// exit refetch — pass shiftOutcome=false).
func (p *Predictor) Restore(s Snapshot, shiftOutcome bool, pc uint64, taken bool) {
	*p.hist() = s.h
	if shiftOutcome {
		p.hist().shift(taken, pc)
	}
}

// Predictions returns the number of Predict calls, for stats.
func (p *Predictor) Predictions() uint64 { return p.predictions }

func (p *Predictor) hist() *history { return &p.tage.hist }
