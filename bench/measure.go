package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// epoch anchors every timestamp the harness takes: nanos() is one
// monotonic clock read, and spans, latencies and slice boundaries all use
// the same clock so they can be laid over each other.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// histSubBits fixes the histogram resolution: 2^7 = 128 sub-buckets per
// power of two, so a bucket is at most 0.8% wide.
const histSubBits = 7

// hist is a fixed-memory log-linear latency histogram over nanoseconds.
// Values below 256 ns have a bucket each; above that every power of two is
// cut into 128 equal buckets. It is preallocated before the timed phase so
// recording an op is one increment and never allocates.
type hist struct {
	counts []uint64
	n      uint64
}

func newHist() *hist {
	// 64-bit values need (64 - histSubBits) octaves of 128 buckets.
	return &hist{counts: make([]uint64, (64-histSubBits+1)<<histSubBits)}
}

func histBucket(v uint64) int {
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits
	return e<<histSubBits + int(v>>uint(e))
}

// histBounds returns the lowest value of bucket idx and the bucket width.
func histBounds(idx int) (low, width float64) {
	if idx < 1<<(histSubBits+1) {
		return float64(idx), 1
	}
	e := idx>>histSubBits - 1
	m := idx - e<<histSubBits
	return math.Ldexp(float64(m), e), math.Ldexp(1, e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-quantile in nanoseconds by the nearest-rank rule
// (rank = ceil(p*n), at least 1). Inside a bucket wider than 1 ns the rank's
// position among the bucket's samples is interpolated, so the result keeps
// varying with the data instead of snapping to bucket edges.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := nearestRank(p, int(h.n))
	cum := 0
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+int(c) >= rank {
			low, width := histBounds(idx)
			if width == 1 {
				return low
			}
			return low + width*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += int(c)
	}
	return 0
}

// trimmedMean returns the mean, in nanoseconds, of the samples between the
// lo- and hi-quantile ranks: the middle of the distribution with both tails
// cut off. Unlike a single percentile it does not jump when the rank sits
// between two populations (replay_lease's median op is on the boundary
// between a local draw and a lease round trip), and unlike the plain mean it
// ignores the ops during which the host took the CPU away.
func (h *hist) trimmedMean(lo, hi float64) float64 {
	if h.n == 0 {
		return 0
	}
	first, last := nearestRank(lo, int(h.n)), nearestRank(hi, int(h.n))
	cum, sum := 0, 0.0
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		// Ranks cum+1 .. cum+c fall in this bucket; count those in range.
		from, to := max(cum+1, first), min(cum+int(c), last)
		if to >= from {
			low, width := histBounds(idx)
			mid := low
			if width > 1 {
				mid = low + width/2
			}
			sum += mid * float64(to-from+1)
		}
		cum += int(c)
		if cum >= last {
			break
		}
	}
	return sum / float64(last-first+1)
}

// nearestRank is the 1-based nearest-rank index of the p-quantile among n
// sorted samples: ceil(p*n), clamped to [1, n].
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank-ceil p-quantile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// tailCap is the tail percentile every workload reports when it has the
// samples for it.
const tailCap = 0.99

// tailPercentile applies the "at least ten samples beyond it" rule: the
// highest percentile not above p99 that still leaves ten samples beyond
// it. The replay workloads time millions of ops and always report p99;
// cold_forest times a few dozen and reports its eleventh-slowest op.
func tailPercentile(n uint64) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(tailCap, 1-10/float64(n))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCPUSeconds is the CPU time the runtime attributes to garbage collection.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// usage is a snapshot of the process counters a phase is charged against.
type usage struct {
	cpu, gcCPU         float64
	mallocs, allocated uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuSeconds(), gcCPU: gcCPUSeconds(), mallocs: ms.Mallocs, allocated: ms.TotalAlloc}
}

// liveHeapMiB forces two collections and returns what survived them. Two,
// because a sync.Pool's contents survive one (they move to the pool's victim
// cache): after one, cold_forest's heap is 1.2 MiB or 2.0 MiB depending on
// whether a pooled gzip writer was idle when the phase ended.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeCalls returns the median nanoseconds per call of fn over reps
// batches of batch calls each — the isolated-layer probe every
// "median of at least 7 repetitions" number in the traced run comes from.
func timeCalls(reps, batch int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := nanos()
		for i := 0; i < batch; i++ {
			fn()
		}
		per[r] = float64(nanos()-start) / float64(batch)
	}
	return median(per)
}
