// Package ace implements Architecturally Correct Execution (ACE) analysis
// for the simulated core, following Mukherjee et al. (MICRO 2003) as used
// by the paper (§IV-B).
//
// An ACE bit is a bit that must be correct for the program to execute
// correctly. The ACE Bit Count (ABC) of a run is the total number of
// bit-cycles exposed by correct-path instructions in the core's
// microarchitectural structures:
//
//	ABC = Σ_i ACE_i            (Equation 1)
//
// Each structure entry exposes bits over the window of Figure 2: an ROB
// entry from dispatch to commit, an issue-queue entry from dispatch to
// issue, load/store-queue entries from execute to commit, a physical
// register from writeback to the producer's commit, and a functional unit
// for its bit width times the instruction's execution cycles. NOPs,
// wrong-path instructions, and any state that is squashed (branch
// misprediction repair, pipeline flush, runahead exit flush) are un-ACE:
// the core simply never reports their windows.
//
// The package also implements the paper's Figure 5 attribution: how much of
// the ABC is exposed while an LLC-miss load blocks the ROB head, and while
// the ROB is additionally full. Attribution uses two monotone cycle
// counters that the core advances; windows snapshot the counters at their
// endpoints, so the overlap of any window with the blocked intervals is a
// subtraction rather than a per-cycle scan.
package ace

import "fmt"

// Structure identifies a vulnerable microarchitectural structure.
type Structure int

// The tracked structures, matching the paper's ABC stacks (Figure 3).
const (
	ROB Structure = iota
	IQ
	LQ
	SQ
	RF
	FU
	NumStructures
)

var structureNames = [NumStructures]string{"ROB", "IQ", "LQ", "SQ", "RF", "FU"}

// String returns the structure's name.
func (s Structure) String() string {
	if s >= 0 && s < NumStructures {
		return structureNames[s]
	}
	return fmt.Sprintf("structure(%d)", int(s))
}

// Bits is the per-entry bit budget of each structure (Table III).
type Bits struct {
	ROBEntry int // 120: PC index, mapping triple, LQ/SQ index, status
	IQEntry  int // 80: register tags, LQ/SQ index, micro-op
	LQEntry  int // 120: VA+PA, ROB id, SQ index, fault bits
	SQEntry  int // 184: load-queue fields plus 64-bit data
	IntReg   int // 64
	FpReg    int // 128
	IntFU    int // 64-bit wide integer units
	FpFU     int // 128-bit wide FP units
}

// DefaultBits returns the Table III / §IV-A budgets.
func DefaultBits() Bits {
	return Bits{
		ROBEntry: 120,
		IQEntry:  80,
		LQEntry:  120,
		SQEntry:  184,
		IntReg:   64,
		FpReg:    128,
		IntFU:    64,
		FpFU:     128,
	}
}

// Sizes is the entry count of each structure, used for the AVF
// denominator (N in Equation 2).
type Sizes struct {
	ROB, IQ, LQ, SQ int
	IntRegs, FpRegs int
	IntFUs, FpFUs   int
}

// TotalBits returns N: the total number of vulnerable bits in the core.
func TotalBits(b Bits, s Sizes) uint64 {
	return uint64(s.ROB*b.ROBEntry) +
		uint64(s.IQ*b.IQEntry) +
		uint64(s.LQ*b.LQEntry) +
		uint64(s.SQ*b.SQEntry) +
		uint64(s.IntRegs*b.IntReg) +
		uint64(s.FpRegs*b.FpReg) +
		uint64(s.IntFUs*b.IntFU) +
		uint64(s.FpFUs*b.FpFU)
}
