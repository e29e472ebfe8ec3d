package main

import (
	"math"
	"sort"
	"time"
)

// span is a closed-open interval [start, end) in nanoseconds on the
// benchmark's monotonic clock.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// selfTime is a span's duration minus the measure of the union of its
// children clipped to it. Children of a fan-out overlap, so summing them
// would count shared wall time twice; the union counts it once.
func selfTime(parent span, children []span) int64 {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.dur() - unionLen(clipped)
}

// unionLen is the total length covered by a set of spans.
func unionLen(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var total int64
	cur := sorted[0]
	for _, s := range sorted[1:] {
		if s.start <= cur.end {
			if s.end > cur.end {
				cur.end = s.end
			}
			continue
		}
		total += cur.dur()
		cur = s
	}
	return total + cur.dur()
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs;
// NaN when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentileLadder lists the reportable percentiles in basis points.
var percentileLadder = []int{5000, 9000, 9500, 9900, 9950, 9990, 9995, 9999}

// minTail is how many samples must lie beyond a percentile for it to be
// reported as measured rather than extrapolated from a handful of calls.
const minTail = 10

// topPercentile is the highest ladder percentile with at least minTail of
// n samples beyond its nearest-rank position, or 0 when even the median
// lacks them. Integer arithmetic keeps the rule exact at the boundaries.
func topPercentile(n int) float64 {
	best := 0
	for _, bp := range percentileLadder {
		rank := (bp*n + 9999) / 10000
		if n-rank >= minTail {
			best = bp
		}
	}
	return float64(best) / 100
}

func ms(ns int64) float64           { return float64(ns) / 1e6 }
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
