// Package branch implements the conditional-branch direction predictor and
// BTB of the simulated core: a TAGE predictor (bimodal base plus tagged
// tables over geometrically increasing global-history lengths, with folded
// history registers and usefulness-based allocation), a loop predictor for
// constant-trip-count loops, and a small statistical-corrector-style bias
// table — a compact cousin of the 8 KB TAGE-SC-L the paper configures
// (Table II).
//
// The predictor supports speculative history: the core snapshots history
// state when it predicts a branch and restores the snapshot when a
// misprediction (or a runahead exit) squashes the path. Table updates
// happen only at commit, so wrong-path and runahead-speculative branches
// never pollute the tables.
package branch

// ghrBits is the capacity of the global history register. It must be at
// least the longest tagged-table history length.
const ghrBits = 256

// Folded histories. Each tagged table hashes its last historyLens[i]
// outcomes folded down to a few bits, maintained incrementally as in
// standard TAGE: on every history shift the fold rotates left by one
// within its width, the new outcome is XORed into bit 0 and the outcome
// aging out of the window is XORed in at bit historyLens[i] % width. That
// is O(1) per table regardless of history length.
//
// Every table keeps two folds: one logTagged bits wide, which serves as
// both the index hash and the first tag hash, and one tagBits-1 bits
// wide, the second tag hash. The nTables folds of each width sit side by
// side as lanes of one uint64 (lane i, at bit i*width, is table i's), so
// a shift updates all twelve folds with a few word operations.
const (
	idxLane = logTagged   // width of the index (and first tag) folds
	tagLane = tagBits - 1 // width of the second tag folds
)

// foldLanes describes one word of packed folds.
type foldLanes struct {
	width uint
	low   uint64         // bit 0 of every lane
	top   uint64         // the top bit of every lane
	aging [nTables]uint8 // word bit at which table i's aging outcome enters
}

var idxLanes, tagLanes = newFoldLanes(idxLane), newFoldLanes(tagLane)

func newFoldLanes(width uint) foldLanes {
	l := foldLanes{width: width}
	for i, n := range historyLens {
		base := uint(i) * width
		l.low |= 1 << base
		l.top |= 1 << (base + width - 1)
		l.aging[i] = uint8(base + uint(n)%width)
	}
	return l
}

// rotate rotates every lane of x left by one bit within its width.
func (l *foldLanes) rotate(x uint64) uint64 {
	return (x&^l.top)<<1 | (x&l.top)>>(l.width-1)
}

// history is the global branch history: a ring of the last ghrBits
// outcomes plus the packed folds of every tagged table. It is the state
// captured by Snapshot/Restore.
type history struct {
	bits [ghrBits / 64]uint64
	pos  int // index of the next bit to write

	// recent mirrors the newest 64 history bits (bit 0 = most recent
	// outcome) so short-distance reads — the statistical corrector's
	// folds, most tagged-table aging bits — are one shift-and-mask on a
	// register instead of a ring lookup per bit.
	recent uint64

	// phist is a short path history mixed into the indices.
	phist uint64

	idx uint64 // idxLane-wide folds, one lane per table (see idxLanes)
	tag uint64 // tagLane-wide folds, one lane per table (see tagLanes)
}

// bit returns history bit at distance d (d=1 is the most recent outcome).
// ghrBits is a power of two, so the ring arithmetic is masks and shifts;
// distances within the recent window never touch the ring at all.
func (h *history) bit(d int) uint64 {
	if d <= 64 {
		return (h.recent >> (d - 1)) & 1
	}
	p := (h.pos - d) & (ghrBits - 1)
	return (h.bits[p>>6] >> (p & 63)) & 1
}

// idxFold returns table i's index fold, which is also its first tag fold.
func (h *history) idxFold(i int) uint32 {
	return uint32(h.idx>>(idxLane*i)) & (1<<idxLane - 1)
}

// tagFold returns table i's second tag fold.
func (h *history) tagFold(i int) uint32 {
	return uint32(h.tag>>(tagLane*i)) & (1<<tagLane - 1)
}

// shift pushes one branch outcome into the history and updates every
// fold.
func (h *history) shift(taken bool, pc uint64) {
	var nb uint64
	if taken {
		nb = 1
	}
	idx := idxLanes.rotate(h.idx) ^ idxLanes.low*nb
	tag := tagLanes.rotate(h.tag) ^ tagLanes.low*nb
	for i := range historyLens {
		old := h.bit(historyLens[i])
		idx ^= old << idxLanes.aging[i]
		tag ^= old << tagLanes.aging[i]
	}
	h.idx, h.tag = idx, tag
	w, b := h.pos>>6, uint(h.pos&63)
	h.bits[w] = (h.bits[w] &^ (1 << b)) | (nb << b)
	h.pos = (h.pos + 1) & (ghrBits - 1)
	h.recent = (h.recent << 1) | nb
	h.phist = ((h.phist << 1) ^ (pc >> 2)) & 0xFFFF
}

// Snapshot is a copy of the speculative history state at one point in the
// fetch stream. Restoring it rewinds the predictor to that point. It is a
// flat value (no heap indirection) so the core can checkpoint one per
// in-flight branch cheaply.
type Snapshot struct{ h history }
