package mem

import "testing"

func TestDRAMRowHitFaster(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	first := d.Access(0x1000, 100, false) // opens the row
	// Second access to the same page after the bank is free: row hit.
	second := d.Access(0x1040, first+100, false)
	hitLat := second - (first + 100)

	d2 := NewDRAM(DefaultDRAMConfig())
	d2.Access(0x1000, 100, false)
	// Different row, same bank: precharge + activate.
	cfg := DefaultDRAMConfig()
	conflictAddr := 0x1000 + cfg.PageBytes*uint64(cfg.BanksTotal)
	third := d2.Access(conflictAddr, first+100, false)
	confLat := third - (first + 100)

	if hitLat >= confLat {
		t.Errorf("row hit (%d) must beat row conflict (%d)", hitLat, confLat)
	}
	if d.RowHitRate() <= 0 {
		t.Error("row hit not recorded")
	}
}

func TestDRAMBankParallelism(t *testing.T) {
	cfg := DefaultDRAMConfig()
	// Two accesses to different banks largely overlap; to the same bank
	// (different rows) they serialise.
	dA := NewDRAM(cfg)
	dA.Access(0x0, 0, false)
	diffBank := dA.Access(cfg.PageBytes, 0, false) // bank 1

	dB := NewDRAM(cfg)
	dB.Access(0x0, 0, false)
	sameBank := dB.Access(cfg.PageBytes*uint64(cfg.BanksTotal), 0, false) // bank 0, next row

	if diffBank >= sameBank {
		t.Errorf("different banks (%d) must finish before same-bank conflict (%d)",
			diffBank, sameBank)
	}
}

func TestDRAMBusSerialisation(t *testing.T) {
	cfg := DefaultDRAMConfig()
	d := NewDRAM(cfg)
	// Many simultaneous requests to different banks: the shared data bus
	// must space completions at least Burst apart.
	var done []uint64
	for i := 0; i < 8; i++ {
		done = append(done, d.Access(uint64(i)*cfg.PageBytes, 0, false))
	}
	for i := 1; i < len(done); i++ {
		if done[i] < done[i-1]+cfg.Burst {
			t.Errorf("bus overlap: done[%d]=%d done[%d]=%d", i-1, done[i-1], i, done[i])
		}
	}
}

func TestDRAMRowHitStreaming(t *testing.T) {
	// Consecutive row hits to one bank stream at burst rate, not at full
	// CAS latency per line (the CAS pipelining fix).
	cfg := DefaultDRAMConfig()
	d := NewDRAM(cfg)
	prev := d.Access(0x0, 0, false)
	for i := 1; i < 8; i++ {
		cur := d.Access(uint64(i)*LineSize, 0, false)
		if cur-prev > cfg.Burst {
			t.Errorf("row-hit stream spacing %d > burst %d", cur-prev, cfg.Burst)
		}
		prev = cur
	}
}

func TestDRAMStats(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	d.Access(0x0, 0, false)
	d.Access(0x40, 0, true)
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Errorf("reads/writes = %d/%d", d.Reads(), d.Writes())
	}
	// The writeback hits the row the read opened.
	if d.RowHitRate() != 0.5 {
		t.Errorf("row hit rate = %v, want 0.5", d.RowHitRate())
	}
}

func TestDRAMZeroConfigDefaults(t *testing.T) {
	d := NewDRAM(DRAMConfig{})
	if got := d.Access(0x0, 0, false); got == 0 {
		t.Error("zero config must fall back to defaults")
	}
}
