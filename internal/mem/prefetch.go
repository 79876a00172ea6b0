package mem

// PrefetchMode selects where the stride prefetcher sits (Figure 11).
type PrefetchMode uint8

const (
	// PrefetchOff disables hardware prefetching (the baseline, §IV-A).
	PrefetchOff PrefetchMode = iota
	// PrefetchL3 trains on LLC accesses and fills prefetched lines into
	// the LLC only ("+L3").
	PrefetchL3
	// PrefetchAll trains at every cache level and fills into all three
	// levels ("+ALL").
	PrefetchAll
)

// String names the mode.
func (m PrefetchMode) String() string {
	switch m {
	case PrefetchOff:
		return "off"
	case PrefetchL3:
		return "+L3"
	case PrefetchAll:
		return "+ALL"
	}
	return "prefetch?"
}

// StridePrefetcher is an aggressive stride/stream prefetcher with up to 16
// concurrent streams (§V-F). Streams are tracked per 4 KiB region: two
// consecutive accesses with the same line stride confirm a stream, after
// which the prefetcher runs `degree` lines ahead of the demand stream.
type StridePrefetcher struct {
	streams [16]pfStream
	degree  int
	// buf is Train's reusable output buffer. Train fires on every demand
	// access when prefetching is on; its result is consumed synchronously
	// by the hierarchy before the next access, so one buffer suffices.
	buf []uint64

	issued uint64
}

type pfStream struct {
	region   uint64
	lastLine uint64
	stride   int64
	conf     int
	lastUse  uint64
	valid    bool
}

// NewStridePrefetcher builds a prefetcher that runs degree lines ahead.
func NewStridePrefetcher(degree int) *StridePrefetcher {
	if degree <= 0 {
		degree = 4
	}
	return &StridePrefetcher{degree: degree, buf: make([]uint64, 0, degree)}
}

// Train observes a demand access and returns the line addresses to
// prefetch (empty when no stream is confident).
func (p *StridePrefetcher) Train(addr, now uint64) []uint64 {
	line := addr >> lineShift
	region := addr >> 12

	// Find the stream for this region, or a victim.
	var s *pfStream
	victim := &p.streams[0]
	for i := range p.streams {
		st := &p.streams[i]
		if st.valid && st.region == region {
			s = st
			break
		}
		if !st.valid {
			victim = st
		} else if victim.valid && st.lastUse < victim.lastUse {
			victim = st
		}
	}
	if s == nil {
		// Streams frequently cross region boundaries; look for a stream
		// whose projection lands on this line so it survives the crossing.
		for i := range p.streams {
			st := &p.streams[i]
			if st.valid && st.conf >= 2 && int64(st.lastLine)+st.stride == int64(line) {
				s = st
				s.region = region
				break
			}
		}
	}
	if s == nil {
		*victim = pfStream{region: region, lastLine: line, lastUse: now, valid: true}
		return nil
	}

	s.lastUse = now
	delta := int64(line) - int64(s.lastLine)
	if delta == 0 {
		return nil
	}
	if delta == s.stride {
		if s.conf < 4 {
			s.conf++
		}
	} else {
		s.stride = delta
		s.conf = 1
	}
	s.lastLine = line
	if s.conf < 2 || s.stride == 0 {
		return nil
	}

	out := p.buf[:0]
	next := int64(line)
	for i := 0; i < p.degree; i++ {
		next += s.stride
		if next <= 0 {
			break
		}
		out = append(out, uint64(next)<<lineShift)
	}
	p.buf = out
	p.issued += uint64(len(out))
	return out
}

// Issued returns the total number of prefetch requests generated.
func (p *StridePrefetcher) Issued() uint64 { return p.issued }
