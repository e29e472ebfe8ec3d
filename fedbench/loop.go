package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock abstracts time for the load loops so their arithmetic is testable.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type realClock struct{ base time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.base) }

func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// sample is one completed operation of a load loop.
type sample struct {
	idx, kind       int
	due, start, end time.Duration
	ok              bool
}

// latency is measured from the due time, so time an operation spent
// waiting behind a stalled one counts against it (no coordinated omission).
func (s sample) latency() time.Duration { return s.end - s.due }

// late is how far behind schedule the generator issued the operation.
func (s sample) late() time.Duration { return s.start - s.due }

// openLoop issues operation i at t0 + i*interval on at most workers
// concurrent callers until the schedule passes t0+length. A caller takes
// the next due operation only when it is free, so a slow operation delays
// the ones behind it and the delay shows in their latency.
func openLoop(clk clock, workers int, interval, length time.Duration, run func(i int) bool) []sample {
	t0 := clk.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				i := int(next.Add(1) - 1)
				due := t0 + time.Duration(i)*interval
				if due >= t0+length {
					break
				}
				clk.SleepUntil(due)
				start := clk.Now()
				ok := run(i)
				local = append(local, sample{idx: i, due: due, start: start, end: clk.Now(), ok: ok})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs workers callers back to back until length has passed,
// numbering operations from first; each sample's due time is its start.
func closedLoop(clk clock, workers int, length time.Duration, first int, run func(i int) bool) []sample {
	deadline := clk.Now() + length
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for clk.Now() < deadline {
				i := int(next.Add(1) - 1)
				start := clk.Now()
				ok := run(i)
				local = append(local, sample{idx: i, due: start, start: start, end: clk.Now(), ok: ok})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}
