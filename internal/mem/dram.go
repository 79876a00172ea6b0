package mem

// DRAMConfig describes the memory device timing, expressed in CPU cycles.
// The defaults model DDR3-1600 behind a 2.66 GHz core (Table II): the
// 800 MHz DDR bus gives a CPU/memory clock ratio of 3.325, and
// tRP-tCL-tRCD of 11-11-11 memory cycles is ~37 CPU cycles each. A 64-byte
// line moves in 8 beats over the 64-bit bus: 4 memory cycles ≈ 14 CPU
// cycles of data-bus occupancy.
type DRAMConfig struct {
	BanksTotal int    // banks; consecutive pages map to consecutive banks
	PageBytes  uint64 // row-buffer size
	TRP        uint64 // precharge, CPU cycles
	TRCD       uint64 // activate, CPU cycles
	TCL        uint64 // CAS, CPU cycles
	Burst      uint64 // data transfer time per line, CPU cycles
	Ctrl       uint64 // fixed controller/queueing overhead, CPU cycles
}

// DefaultDRAMConfig returns the Table II DDR3-1600 configuration.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		BanksTotal: 32,
		PageBytes:  4096,
		TRP:        37,
		TRCD:       37,
		TCL:        37,
		Burst:      14,
		Ctrl:       20,
	}
}

type dramBank struct {
	openRow   uint64
	busyUntil uint64
	hasOpen   bool
}

// DRAM is an open-row DDR-style memory model: per-bank row buffers and
// busy times plus a shared data bus. It is deliberately simple — FCFS per
// bank — but reproduces the latency structure that matters for runahead:
// row hits are cheap, row conflicts are expensive, and independent misses
// to different banks overlap (bank-level parallelism).
type DRAM struct {
	cfg       DRAMConfig
	banks     []dramBank
	busFreeAt uint64

	reads   uint64
	writes  uint64
	rowHits uint64
}

// NewDRAM builds a DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.BanksTotal <= 0 {
		cfg = DefaultDRAMConfig()
	}
	return &DRAM{cfg: cfg, banks: make([]dramBank, cfg.BanksTotal)}
}

// Access performs a read (write=false) or writeback (write=true) of the
// line at addr arriving at the controller at cycle now, and returns the
// cycle at which the data transfer completes.
func (d *DRAM) Access(addr, now uint64, write bool) uint64 {
	cfg := &d.cfg
	pageIdx := addr / cfg.PageBytes
	bankIdx := pageIdx % uint64(len(d.banks))
	row := pageIdx / uint64(len(d.banks))
	b := &d.banks[bankIdx]

	start := now + cfg.Ctrl
	if b.busyUntil > start {
		start = b.busyUntil
	}

	// CAS latency pipelines across consecutive accesses to an open row:
	// the bank is only occupied for the activate/precharge work plus the
	// data transfer, so row-hit streams move at burst rate, while row
	// conflicts pay the full precharge+activate penalty.
	var lat, bankBusy uint64
	switch {
	case b.hasOpen && b.openRow == row:
		lat = cfg.TCL
		bankBusy = cfg.Burst
		d.rowHits++
	case !b.hasOpen:
		lat = cfg.TRCD + cfg.TCL
		bankBusy = cfg.TRCD + cfg.Burst
	default:
		lat = cfg.TRP + cfg.TRCD + cfg.TCL
		bankBusy = cfg.TRP + cfg.TRCD + cfg.Burst
	}
	b.openRow, b.hasOpen = row, true

	dataStart := start + lat
	if d.busFreeAt > dataStart {
		dataStart = d.busFreeAt
	}
	done := dataStart + cfg.Burst
	d.busFreeAt = done
	b.busyUntil = start + bankBusy

	if write {
		d.writes++
	} else {
		d.reads++
	}
	return done
}

// Reads returns the number of read transactions serviced.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes returns the number of writeback transactions serviced.
func (d *DRAM) Writes() uint64 { return d.writes }

// RowHitRate returns the fraction of transactions that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	t := d.reads + d.writes
	if t == 0 {
		return 0
	}
	return float64(d.rowHits) / float64(t)
}
