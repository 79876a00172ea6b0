package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rarsim/internal/config"
	"rarsim/internal/core"
	"rarsim/internal/trace"
)

// TestPoolBoundsConcurrency saturates a 2-slot pool with 8 tasks and
// checks the gauges: exactly 2 active, 6 queued, and never more than 2
// inside Do at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(2)
	if p.Size() != 2 {
		t.Fatalf("Size = %d, want 2", p.Size())
	}
	var cur, peak atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(func() {
				c := cur.Add(1)
				for {
					m := peak.Load()
					if c <= m || peak.CompareAndSwap(m, c) {
						break
					}
				}
				<-gate
				cur.Add(-1)
			})
		}()
	}
	// Wait for the pool to reach steady state: 2 running, 6 blocked.
	for i := 0; i < 1000 && !(p.Active() == 2 && p.Queued() == 6); i++ {
		time.Sleep(time.Millisecond)
	}
	if p.Active() != 2 || p.Queued() != 6 {
		t.Errorf("active=%d queued=%d, want 2/6", p.Active(), p.Queued())
	}
	close(gate)
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrency %d exceeded pool size 2", got)
	}
	if p.Active() != 0 || p.Queued() != 0 {
		t.Errorf("after drain: active=%d queued=%d, want 0/0", p.Active(), p.Queued())
	}
}

// TestNilPool: a nil pool is the "unbounded" degenerate case every
// call site may pass.
func TestNilPool(t *testing.T) {
	var p *Pool
	ran := false
	p.Do(func() { ran = true })
	if !ran {
		t.Error("nil pool must still run the task")
	}
	if p.Size() != 0 || p.Active() != 0 || p.Queued() != 0 {
		t.Error("nil pool gauges must be zero")
	}
}

// TestRunMatrixOnSharedPool runs two concurrent matrices through one
// single-slot pool: both must complete correctly, and the pool — not the
// matrices' own parallelism — must bound simulation concurrency to 1.
func TestRunMatrixOnSharedPool(t *testing.T) {
	var cur, peak atomic.Int64
	e := NewEngine()
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond) // widen the overlap window
		cur.Add(-1)
		return core.Stats{Cycles: 100, Committed: o.Instructions}, nil
	}
	pool := NewPool(1)
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO, config.PRE, config.RAR}
	benches := twoBenches(t)
	opt := smallOpt()
	opt.Parallelism = 4 // each matrix would run 4-wide on its own

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.RunMatrixOn(pool, cores, schemes, benches, opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("peak simulation concurrency %d, want 1 (pool-bounded)", got)
	}
	want := uint64(len(schemes) * len(benches))
	if m := e.Metrics(); m.Simulated != want {
		t.Errorf("simulated %d cells, want %d (cross-matrix dedup)", m.Simulated, want)
	}
}

// TestCacheHitHoldsNoPoolSlot: while an unrelated simulation holds a
// 1-slot pool, a matrix whose cell is already cached must return without
// waiting for the slot.
func TestCacheHitHoldsNoPoolSlot(t *testing.T) {
	benches := twoBenches(t)
	gated, cached := benches[0], benches[1]
	started, gate := make(chan struct{}), make(chan struct{})
	e := NewEngine()
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		if b.Name == gated.Name {
			close(started)
			<-gate
		}
		return core.Stats{Cycles: 100, Committed: o.Instructions}, nil
	}
	pool := NewPool(1)
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO}
	opt := smallOpt()
	matrix := func(b trace.Benchmark) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := e.RunMatrixOn(pool, cores, schemes, []trace.Benchmark{b}, opt)
			done <- err
		}()
		return done
	}
	if err := <-matrix(cached); err != nil {
		t.Fatal(err)
	}

	held := matrix(gated)
	<-started // the gated simulation holds the pool's only slot
	select {
	case err := <-matrix(cached):
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a cached cell waited for the pool slot an unrelated simulation holds")
	}
	close(gate)
	if err := <-held; err != nil {
		t.Error(err)
	}
	if m := e.Metrics(); m.Simulated != 2 || m.Hits != 1 {
		t.Errorf("simulated=%d hits=%d, want 2/1", m.Simulated, m.Hits)
	}
}

// TestInFlightWaiterHoldsNoPoolSlot: with a 2-slot pool, cell X is
// simulating and a second matrix waits on X in flight. The waiter must
// not take the second slot, so a third matrix's cell Y starts simulating
// while X is still gated.
func TestInFlightWaiterHoldsNoPoolSlot(t *testing.T) {
	benches := twoBenches(t)
	x, y := benches[0], benches[1]
	xStarted, yStarted, gate := make(chan struct{}), make(chan struct{}), make(chan struct{})
	e := NewEngine()
	e.runCell = func(cfg config.Core, s config.Scheme, b trace.Benchmark, o Options) (core.Stats, error) {
		if b.Name == x.Name {
			close(xStarted)
			<-gate
		} else {
			close(yStarted)
		}
		return core.Stats{Cycles: 100, Committed: o.Instructions}, nil
	}
	pool := NewPool(2)
	cores := []config.Core{config.Baseline()}
	schemes := []config.Scheme{config.OoO}
	opt := smallOpt()
	var wg sync.WaitGroup
	matrix := func(b trace.Benchmark) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.RunMatrixOn(pool, cores, schemes, []trace.Benchmark{b}, opt); err != nil {
				t.Error(err)
			}
		}()
	}

	matrix(x)
	<-xStarted
	matrix(x)
	// No event marks the waiter's arrival at X's in-flight entry; give it
	// time to get there (or, if it wrongly queues on the pool, to take the
	// free slot), so Y's start below proves the waiter left the slot free.
	time.Sleep(50 * time.Millisecond)
	matrix(y)
	select {
	case <-yStarted:
	case <-time.After(5 * time.Second):
		t.Error("a waiter on an in-flight cell held a pool slot: Y could not start while X was simulating")
	}
	close(gate)
	wg.Wait()
	if m := e.Metrics(); m.Simulated != 2 || m.Hits != 1 {
		t.Errorf("simulated=%d hits=%d, want 2/1", m.Simulated, m.Hits)
	}
}
