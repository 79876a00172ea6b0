package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// recordedDigests holds, per workload, the Stats digest of every cell and
// chip core (and the body digest of every cold serve matrix) at the
// default seed. A change that alters any simulated result fails the
// default-seed run until the digests are re-recorded with
// -record-digests, which makes such a change visible in review.
//
//go:embed digests.json
var recordedDigests []byte

// digestBook checks digests against the recorded table, or fills the
// table when recording. The serve workload checks from two client
// goroutines.
type digestBook struct {
	mu     sync.Mutex
	byLoad map[string]map[string]string //rarlint:guardedby mu
	record bool                         //rarlint:guardedby init
}

// loadDigests returns the recorded table, or, when recording into path,
// the table in that file so recordings of several workloads accumulate.
func loadDigests(path string) (*digestBook, error) {
	b := &digestBook{byLoad: map[string]map[string]string{}, record: path != ""}
	data := recordedDigests
	if b.record {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	if err := json.Unmarshal(data, &b.byLoad); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	return b, nil
}

// check compares the digest got for id in workload against the recorded
// one (only at the default seed) and returns the problem, if any. While
// recording it stores got instead.
func (b *digestBook) check(o options, workload, id, got string) []string {
	if o.seed != defaultSeed {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.record {
		if b.byLoad[workload] == nil {
			b.byLoad[workload] = map[string]string{}
		}
		b.byLoad[workload][id] = got
		return nil
	}
	want, ok := b.byLoad[workload][id]
	switch {
	case !ok:
		return []string{fmt.Sprintf("%s %s: no recorded digest (got %s)", workload, id, got)}
	case want != got:
		return []string{fmt.Sprintf("%s %s: digest %s, recorded %s", workload, id, got, want)}
	}
	return nil
}

func (b *digestBook) write(path string) error {
	b.mu.Lock()
	data, err := json.MarshalIndent(b.byLoad, "", "  ")
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
