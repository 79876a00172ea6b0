package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call from the benchmark into one
// layer's public function. Start and End are offsets from the recorder's
// origin; Parent indexes the span that caused it (-1 for a root); ID
// names the workload's cell, chip or request the span belongs to.
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Aggs   []aggregate   `json:"aggregates,omitempty"`
}

// aggregate folds a run of fine-grained calls made inside one span —
// trace blocks, replay-loop iterations — into a call count, an item
// count and their summed duration, so tracing them costs no span each.
type aggregate struct {
	Name  string        `json:"name"`
	Calls uint64        `json:"calls"`
	Items uint64        `json:"items"`
	Dur   time.Duration `json:"dur_ns"`
}

// recorder keeps a traced run's spans in memory; they are written out
// once, when the run ends. The serve workload records from two client
// goroutines.
type recorder struct {
	mu     sync.Mutex
	origin time.Time //rarlint:guardedby init
	spans  []span    //rarlint:guardedby mu
}

func newRecorder() *recorder {
	return &recorder{origin: now()}
}

// begin opens a span and returns its handle.
func (r *recorder) begin(name, id string, parent int) int {
	t := since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: t, End: t})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	t := since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = t
}

// interval records a span timed by the caller, from start to end.
func (r *recorder) interval(name, id string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.Sub(r.origin), End: end.Sub(r.origin),
	})
	return len(r.spans) - 1
}

// aggregate attaches a folded run of calls to span i.
func (r *recorder) aggregate(i int, a aggregate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].Aggs = append(r.spans[i].Aggs, a)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON under dir, named after the run.
func (r *recorder) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}

// spanTotals sums, per span name, the spans' durations and their self
// times. A span's self time is its duration minus the part of its
// interval that its child spans cover and minus its aggregates' summed
// durations.
func spanTotals(spans []span) (total, self map[string]time.Duration) {
	kids := children(spans)
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for i, s := range spans {
		total[s.Name] += s.End - s.Start
		self[s.Name] += selfTime(s, kids[i])
	}
	return total, self
}

// children maps each span's index to its child spans.
func children(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s, minus the summed duration of s's aggregates.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	d := s.End - s.Start - covered
	for _, a := range s.Aggs {
		d -= a.Dur
	}
	return d
}

// aggTotals sums every aggregate of the given name across spans.
func aggTotals(spans []span, name string) aggregate {
	out := aggregate{Name: name}
	for _, s := range spans {
		for _, a := range s.Aggs {
			if a.Name == name {
				out.Calls += a.Calls
				out.Items += a.Items
				out.Dur += a.Dur
			}
		}
	}
	return out
}
