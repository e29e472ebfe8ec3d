package main

import (
	"sync"
	"testing"
	"time"

	"openflame/internal/worldgen"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {1999, 99}, {2000, 99.5}, {9999, 99.5}, {10000, 99.9},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := percentile(xs, 10); got != 1 {
		t.Errorf("p10 = %v, want 1", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSelfTimeUnderOverlappingChildren(t *testing.T) {
	parent := span{0, 100}
	children := []span{
		{10, 40}, {30, 60}, // overlap: union [10,60] = 50, not 30+30
		{90, 120}, // clipped to [90,100] = 10
		{-5, 5},   // clipped to [0,5] = 5
		{45, 50},  // nested inside the union, adds nothing
	}
	if got := selfTime(parent, children); got != 35 {
		t.Errorf("selfTime = %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(parent, []span{{-10, 200}}); got != 0 {
		t.Errorf("selfTime under a covering child = %d, want 0", got)
	}
}

// fakeClock advances only when an operation says it took time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestDueTimeLatencyWhenOneOperationStalls(t *testing.T) {
	clk := &fakeClock{}
	ms := time.Millisecond
	got := openLoop(clk, 1, 10*ms, 50*ms, func(i int) bool {
		if i == 0 {
			clk.advance(45 * ms) // the stall
		} else {
			clk.advance(1 * ms)
		}
		return true
	})
	wantLat := []time.Duration{45 * ms, 36 * ms, 27 * ms, 18 * ms, 9 * ms}
	wantLate := []time.Duration{0, 35 * ms, 26 * ms, 17 * ms, 8 * ms}
	if len(got) != len(wantLat) {
		t.Fatalf("%d samples, want %d", len(got), len(wantLat))
	}
	for i, s := range got {
		if s.idx != i || s.due != time.Duration(i)*10*ms {
			t.Errorf("sample %d: idx %d due %v", i, s.idx, s.due)
		}
		if s.latency() != wantLat[i] {
			t.Errorf("op %d latency %v, want %v (timed from its due time)", i, s.latency(), wantLat[i])
		}
		if s.late() != wantLate[i] {
			t.Errorf("op %d late %v, want %v", i, s.late(), wantLate[i])
		}
	}
}

func TestSameSeedGivesSameInputDigest(t *testing.T) {
	spec := worldSpec{blocks: 6, stores: 3}
	cm, err := newCityModel(spec, worldgen.GenWorld(spec.params()))
	if err != nil {
		t.Fatal(err)
	}
	for _, hot := range []bool{true, false} {
		a := digest(newGenerator(cm, hot, 7, nil).sequence(500))
		b := digest(newGenerator(cm, hot, 7, nil).sequence(500))
		c := digest(newGenerator(cm, hot, 8, nil).sequence(500))
		if a != b {
			t.Errorf("hot=%v: same seed gave digests %s and %s", hot, a, b)
		}
		if a == c {
			t.Errorf("hot=%v: seeds 7 and 8 gave the same digest %s", hot, a)
		}
	}
}
