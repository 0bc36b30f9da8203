package main

import (
	"cmp"
	"slices"
	"syscall"

	"tmsync/internal/mono"
)

// epoch anchors every timestamp the benchmark takes: now() is the
// monotonic nanoseconds since process start, a plain int64 that fits in an
// atomic word (OnCommit stamps) and in a span record.
var epoch = mono.Now()

func now() int64 { return int64(epoch.Elapsed()) }

// sampler keeps a bounded, evenly spaced subset of a stream of durations
// (nanoseconds). It records every value until its buffer fills, then
// keeps every other value it holds and doubles its stride, so the kept
// values stay spread over the whole stream however long it runs. count
// is the number of values offered.
type sampler struct {
	buf    []uint32
	n      int
	stride uint64
	skip   uint64
	count  uint64
}

func newSampler(capacity int) *sampler {
	return &sampler{buf: make([]uint32, capacity&^1), stride: 1}
}

func (s *sampler) add(ns int64) {
	s.count++
	if s.skip > 0 {
		s.skip--
		return
	}
	if s.n == len(s.buf) {
		for i := 0; i < s.n/2; i++ {
			s.buf[i] = s.buf[2*i]
		}
		s.n /= 2
		s.stride *= 2
	}
	s.buf[s.n] = clampU32(ns)
	s.n++
	s.skip = s.stride - 1
}

func (s *sampler) values() []uint32 { return s.buf[:s.n] }

func clampU32(ns int64) uint32 {
	switch {
	case ns < 0:
		return 0
	case ns > 1<<32-1:
		return 1<<32 - 1
	}
	return uint32(ns)
}

// A percentile in parts per million, so nearest ranks are exact integer
// arithmetic (p99 of 100 samples is rank 99, not 100).
type percentile struct {
	name string
	ppm  int
}

var (
	p50 = percentile{"p50", 500_000}
	p99 = percentile{"p99", 990_000}
)

// tailLadder is the set of tail percentiles a report may quote.
var tailLadder = []percentile{
	{"p90", 900_000}, p99, {"p99.9", 999_000}, {"p99.99", 999_900}, {"p99.999", 999_990},
}

// rank is the 1-based nearest rank of p among n samples: ceil(p·n).
func rank(n int, p percentile) int {
	r := (n*p.ppm + 999_999) / 1_000_000
	return max(r, 1)
}

// nearestRank returns the p-th percentile of sorted by the nearest-rank
// rule. It returns the zero value for an empty slice.
func nearestRank[T cmp.Ordered](sorted []T, p percentile) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	return sorted[rank(len(sorted), p)-1]
}

// highestTail picks the highest percentile of the ladder that still has at
// least ten samples beyond it among n samples; ok is false when even p90
// has fewer than ten.
func highestTail(n int) (p percentile, ok bool) {
	for _, c := range tailLadder {
		if n-rank(n, c) < 10 {
			break
		}
		p, ok = c, true
	}
	return p, ok
}

// sortedCopy returns the values of xs sorted ascending.
func sortedCopy[T cmp.Ordered](xs []T) []T {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// median is the nearest-rank p50 of xs (xs is not modified).
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), p50) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time span [start, end) in epoch nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the length of parent minus the part of it covered by the
// union of children (clipped to parent). Children may overlap each other:
// two threads' spans inside one operation do.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// usage is the process's CPU time so far (user+system, nanoseconds) and
// its peak resident set size (bytes).
func usage() (cpuNs int64, maxRSS int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	return cpuNs, ru.Maxrss * 1024 // Linux reports ru_maxrss in KiB
}

// weighted is a kept sample standing for weight values of the stream it
// was kept from (its sampler's stride).
type weighted struct {
	v      uint32
	weight uint64
}

func sortWeighted(xs []weighted) {
	slices.SortFunc(xs, func(a, b weighted) int { return cmp.Compare(a.v, b.v) })
}

// weightedRank is nearestRank over sorted weighted samples: the smallest
// value whose cumulative weight reaches ceil(p·total). With unit weights it
// equals nearestRank.
func weightedRank(sorted []weighted, p percentile) uint32 {
	total := uint64(0)
	for _, x := range sorted {
		total += x.weight
	}
	if total == 0 {
		return 0
	}
	r := max((total*uint64(p.ppm)+999_999)/1_000_000, 1)
	acc := uint64(0)
	for _, x := range sorted {
		acc += x.weight
		if acc >= r {
			return x.v
		}
	}
	return sorted[len(sorted)-1].v
}

// weightedCount is the number of stream values the samples stand for.
func weightedCount(xs []weighted) uint64 {
	n := uint64(0)
	for _, x := range xs {
		n += x.weight
	}
	return n
}
