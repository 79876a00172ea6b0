package mem

import "testing"

func newTestHierarchy(pf PrefetchMode) *Hierarchy {
	cfg := DefaultConfig()
	cfg.Prefetch = pf
	cfg.PrefetchDegree = 4
	return NewHierarchy(cfg)
}

func TestHierarchyLatencyLadder(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	cold := h.Access(0x40000000, 100, KindLoad)
	if !cold.LLCMiss {
		t.Fatalf("cold access: %+v", cold)
	}
	coldLat := cold.DoneAt - 100

	// After the fill, the same line hits in L1 at L1 latency.
	warm := h.Access(0x40000000, cold.DoneAt+10, KindLoad)
	if warm.LLCMiss {
		t.Fatalf("warm access: %+v", warm)
	}
	if lat := warm.DoneAt - (cold.DoneAt + 10); lat != h.Config().L1DLat {
		t.Errorf("L1 hit latency = %d", lat)
	}
	if coldLat < h.Config().L3Lat+h.Config().L2Lat {
		t.Errorf("cold latency %d suspiciously small", coldLat)
	}
}

func TestHierarchyL2L3Hits(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	addr := uint64(0x50000000)
	first := h.Access(addr, 0, KindLoad)

	// Evict from L1 by filling its set (L1D: 32KiB/8way/64B = 64 sets;
	// same set every 64*64 = 4096 bytes).
	now := first.DoneAt + 1
	for i := 1; i <= 8; i++ {
		r := h.Access(addr+uint64(i)*4096, now, KindLoad)
		now = r.DoneAt + 1
	}
	res := h.Access(addr, now, KindLoad)
	cfg := h.Config()
	if lat := res.DoneAt - now; lat != cfg.L1DLat+cfg.L2Lat {
		t.Errorf("expected an L2 hit after L1 eviction (latency %d), got latency %d", cfg.L1DLat+cfg.L2Lat, lat)
	}
	if res.LLCMiss {
		t.Error("L2 hit flagged as LLC miss")
	}
}

func TestHierarchyMSHRStall(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	n := h.Config().MSHRs
	for i := 0; i < n; i++ {
		r := h.Access(uint64(0x60000000)+uint64(i)<<12, 10, KindLoad)
		if r.MSHRStall {
			t.Fatalf("unexpected stall at miss %d", i)
		}
	}
	r := h.Access(0x70000000, 11, KindLoad)
	if !r.MSHRStall {
		t.Error("21st outstanding miss must stall")
	}
	s := h.Snapshot()
	if s.MSHRFullStalls == 0 {
		t.Error("stall not counted")
	}
}

func TestHierarchyMergeInFlight(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	a := h.Access(0x40000000, 100, KindLoad)
	b := h.Access(0x40000008, 110, KindLoad) // same line, fill in flight
	if b.DoneAt != a.DoneAt {
		t.Errorf("merged access DoneAt=%d want %d", b.DoneAt, a.DoneAt)
	}
	s := h.Snapshot()
	if s.DemandLLCMisses != 1 {
		t.Errorf("merge must not double-count misses: %d", s.DemandLLCMisses)
	}
	if s.DemandLoads != 2 {
		t.Errorf("demand loads = %d", s.DemandLoads)
	}
}

func TestHierarchyKinds(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	h.Access(0x40000000, 0, KindWrongPath)
	h.Access(0x41000000, 0, KindRunahead)
	s := h.Snapshot()
	if s.DemandLoads != 0 || s.DemandLLCMisses != 0 {
		t.Error("speculative kinds must not count as demand")
	}
	if s.LLCMissCycles == 0 {
		t.Error("runahead misses must count toward MLP")
	}
}

func TestHierarchyMLP(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	// Two overlapping misses to different lines: MLP approaches 2.
	a := h.Access(0x40000000, 100, KindLoad)
	h.Access(0x48000000, 101, KindLoad)
	_ = a
	s := h.Snapshot()
	mlp := s.MLP()
	if mlp < 1.5 || mlp > 2.1 {
		t.Errorf("overlapped MLP = %v", mlp)
	}

	h2 := newTestHierarchy(PrefetchOff)
	// Two disjoint misses: MLP stays ~1.
	r := h2.Access(0x40000000, 100, KindLoad)
	h2.Access(0x48000000, r.DoneAt+50, KindLoad)
	if mlp := h2.Snapshot().MLP(); mlp > 1.05 {
		t.Errorf("serial MLP = %v", mlp)
	}
}

func TestHierarchyStores(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	r := h.Access(0x40000000, 0, KindStore)
	if r.MSHRStall {
		t.Fatal("store stalled")
	}
	// Write-allocate: the line is now present and dirty; evicting it later
	// produces DRAM write traffic. Touch enough conflicting lines to force
	// it all the way out of the 16-way L3.
	now := r.DoneAt + 1
	l3Sets := uint64((1 << 20) / (16 * LineSize))
	for i := 1; i <= 40; i++ {
		rr := h.Access(0x40000000+uint64(i)*l3Sets*LineSize, now, KindLoad)
		if !rr.MSHRStall {
			now = rr.DoneAt + 1
		} else {
			now += 200
		}
	}
	if h.Snapshot().DRAMWrites == 0 {
		t.Error("dirty eviction never wrote back to DRAM")
	}
}

func TestPrefetchL3Mode(t *testing.T) {
	h := newTestHierarchy(PrefetchL3)
	base := uint64(0x40000000)
	now := uint64(0)
	for i := 0; i < 6; i++ {
		r := h.Access(base+uint64(i)*LineSize, now, KindLoad)
		now = r.DoneAt + 1
	}
	s := h.Snapshot()
	if s.PrefetchIssued == 0 {
		t.Fatal("L3 prefetcher never triggered")
	}
	// A line ahead of the demand stream is in L3 but not in L1.
	ahead := base + 8*LineSize
	if !h.L3.Contains(ahead) {
		t.Error("prefetched line missing from L3")
	}
	if h.L1D.Contains(ahead) {
		t.Error("+L3 mode must not fill the L1")
	}
}

func TestPrefetchAllMode(t *testing.T) {
	h := newTestHierarchy(PrefetchAll)
	base := uint64(0x40000000)
	now := uint64(0)
	for i := 0; i < 6; i++ {
		r := h.Access(base+uint64(i)*LineSize, now, KindLoad)
		now = r.DoneAt + 1
	}
	ahead := base + 8*LineSize
	if !h.L1D.Contains(ahead) {
		t.Error("+ALL mode must fill the L1")
	}
}

func TestFetchAccess(t *testing.T) {
	h := newTestHierarchy(PrefetchOff)
	first := h.FetchAccess(0x1000, 0)
	if first <= h.Config().L1ILat {
		t.Error("cold fetch should miss")
	}
	second := h.FetchAccess(0x1004, first+1)
	if second != first+1+h.Config().L1ILat {
		t.Errorf("warm fetch latency = %d", second-(first+1))
	}
}
