package branch

import (
	"math/rand"
	"testing"
	"unsafe"
)

// folded is the serial reference for one TAGE folded-history register:
// the most recent origLen bits of global history folded down to compLen
// bits, updated one register at a time. The packed lanes of history must
// reproduce it bit for bit.
type folded struct {
	comp     uint32
	compLen  uint16
	outPoint uint16
}

func newFolded(origLen, compLen int) folded {
	return folded{compLen: uint16(compLen), outPoint: uint16(origLen % compLen)}
}

// update shifts newBit into the folded hash and oldBit (the history bit
// aging out of the window) out of it.
func (f *folded) update(newBit, oldBit uint32) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// refHistory keeps the whole outcome sequence and three serial folds per
// table: the index fold and two tag folds, the first of which has the
// index fold's geometry.
type refHistory struct {
	outcomes        []uint32
	idx, tag1, tag2 [nTables]folded
}

func newRefHistory() refHistory {
	var r refHistory
	for i, n := range historyLens {
		r.idx[i] = newFolded(n, logTagged)
		r.tag1[i] = newFolded(n, tagBits)
		r.tag2[i] = newFolded(n, tagBits-1)
	}
	return r
}

func (r *refHistory) shift(taken bool) {
	var nb uint32
	if taken {
		nb = 1
	}
	for i, n := range historyLens {
		var old uint32
		if len(r.outcomes) >= n {
			old = r.outcomes[len(r.outcomes)-n]
		}
		r.idx[i].update(nb, old)
		r.tag1[i].update(nb, old)
		r.tag2[i].update(nb, old)
	}
	r.outcomes = append(r.outcomes, nb)
}

func (r refHistory) clone() refHistory {
	r.outcomes = append([]uint32(nil), r.outcomes...)
	return r
}

// TestPackedFoldsMatchSerial drives the predictor's packed history and
// the serial reference with the same random outcome stream, including
// snapshots and restores with and without a repaired outcome, and
// compares every fold after every step. It also checks that Predict's
// table indices and tags are exactly the serial hashes over the reference
// folds.
func TestPackedFoldsMatchSerial(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	p := NewPredictor()
	ref := newRefHistory()
	type saved struct {
		snap Snapshot
		ref  refHistory
	}
	var snaps []saved
	for step := 0; step < 200_000; step++ {
		pc := uint64(rnd.Intn(1<<16)) << 2
		switch op := rnd.Intn(10); {
		case op < 7 || len(snaps) == 0 && op >= 8:
			taken := rnd.Intn(2) == 0
			p.ShiftHistory(taken, pc)
			ref.shift(taken)
		case op == 7:
			if len(snaps) == 8 {
				snaps = snaps[1:]
			}
			snaps = append(snaps, saved{p.Snapshot(), ref.clone()})
		default:
			s := snaps[rnd.Intn(len(snaps))]
			repair, taken := rnd.Intn(2) == 0, rnd.Intn(2) == 0
			p.Restore(s.snap, repair, pc, taken)
			ref = s.ref.clone()
			if repair {
				ref.shift(taken)
			}
		}
		h := p.hist()
		for i := 0; i < nTables; i++ {
			if h.idxFold(i) != ref.idx[i].comp || h.idxFold(i) != ref.tag1[i].comp ||
				h.tagFold(i) != ref.tag2[i].comp {
				t.Fatalf("step %d table %d: packed folds %#x/%#x, serial %#x/%#x/%#x",
					step, i, h.idxFold(i), h.tagFold(i),
					ref.idx[i].comp, ref.tag1[i].comp, ref.tag2[i].comp)
			}
		}
		var info Info
		p.tage.predict(pc, &info)
		for i := 0; i < nTables; i++ {
			idx := (uint32(pc>>2) ^ uint32(pc>>(2+logTagged)) ^ ref.idx[i].comp ^
				uint32(h.phist&((1<<min(historyLens[i], 16))-1))) & (1<<logTagged - 1)
			tag := (uint32(pc>>2) ^ ref.tag1[i].comp ^ ref.tag2[i].comp<<1) & (1<<tagBits - 1)
			if uint32(info.idx[i]) != idx || uint32(info.tag[i]) != tag {
				t.Fatalf("step %d table %d: index/tag %#x/%#x, serial %#x/%#x",
					step, i, info.idx[i], info.tag[i], idx, tag)
			}
		}
	}
}

// TestCorrectorFoldTables checks the corrector's byte tables against the
// serial fold exhaustively: every 21-bit history, with garbage above bit
// 21 that neither fold may read.
func TestCorrectorFoldTables(t *testing.T) {
	for r := uint64(0); r < 1<<21; r++ {
		noisy := r | (r*0x9E3779B97F4A7C15)<<21
		for tb := 0; tb < scTables; tb++ {
			if got, want := scFold(noisy, tb), scFoldSerial(r, scHistLens[tb]); got != want {
				t.Fatalf("table %d history %#x: table fold %#x, serial %#x", tb, r, got, want)
			}
		}
	}
}

// TestPredictorSizes pins the footprints the core's uop and snapshot
// arena are laid out around: Info rides in every branch uop, a Snapshot
// is taken at every mispredicted branch and runahead entry.
func TestPredictorSizes(t *testing.T) {
	if n := unsafe.Sizeof(Info{}); n > 40 {
		t.Errorf("Info is %d bytes, want at most 40", n)
	}
	if n := unsafe.Sizeof(Snapshot{}); n > 72 {
		t.Errorf("Snapshot is %d bytes, want at most 72", n)
	}
}
