package main

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a tail
// percentile before it is reported: a p99 over 200 samples is two
// samples, which is noise, not a tail.
const minBeyond = 10

// tailAllowed reports whether the nearest-rank percentile q (0 < q < 1)
// of n samples has at least minBeyond samples beyond it.
func tailAllowed(n uint64, q float64) bool {
	rank := uint64(math.Ceil(q*float64(n) - 1e-9))
	return n-rank >= minBeyond
}

// tailQuantiles are the tail percentiles considered, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9}

// highestTail returns the highest percentile in tailQuantiles that n
// samples support, or 0 when even p90 has fewer than minBeyond samples
// beyond it.
func highestTail(n uint64) float64 {
	for _, q := range tailQuantiles {
		if tailAllowed(n, q) {
			return q
		}
	}
	return 0
}

// quantileName renders a quantile as its metric suffix: 0.99 -> "p99",
// 0.999 -> "p99.9".
func quantileName(q float64) string {
	return "p" + trimFloat(100*q)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// durHist is a log-linear histogram of durations with subBits sub-buckets
// per power of two, so any recorded value is recovered to within
// 1/2^subBits (under 1%). Its memory is fixed, so recording more samples
// in a faster run never grows the live heap the benchmark reports.
type durHist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 7

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(ns uint64) int {
	if ns < 1<<subBits {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 // ns >= 2^exp
	shift := exp - subBits
	return (shift+1)<<subBits + int(ns>>shift) - 1<<subBits
}

// bucketValue returns the midpoint of bucket b in nanoseconds.
func bucketValue(b int) float64 {
	if b < 1<<subBits {
		return float64(b)
	}
	shift := b>>subBits - 1
	lo := uint64(b&(1<<subBits-1)+1<<subBits) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *durHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

// quantile returns the q-quantile (nearest rank) in nanoseconds.
func (h *durHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketValue(b)
		}
	}
	return bucketValue(len(h.counts) - 1)
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// metricName is the character set BENCHMARK.json allows for metric names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validMetricName(s string) bool { return metricName.MatchString(s) }

// cpuTime is the CPU time the process has used so far, all threads, user
// plus system. Unlike wall time it leaves out the time the host preempted
// a virtual CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("autobench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSample reads the cumulative heap allocation and the live heap as of
// the last completed GC.
type memSample struct{ allocBytes, liveBytes uint64 }

var memKeys = []string{"/gc/heap/allocs:bytes", "/gc/heap/live:bytes"}

func readMem() memSample {
	s := make([]metrics.Sample, len(memKeys))
	for i, k := range memKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return memSample{allocBytes: s[0].Value.Uint64(), liveBytes: s[1].Value.Uint64()}
}

// liveHeapMB forces a GC and returns the live heap in MB. Callers keep the
// workload state reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMem().liveBytes) / (1 << 20)
}
