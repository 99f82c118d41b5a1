package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear histogram of non-negative integer samples (usually
// nanoseconds): values below 64 have exact buckets, larger values keep their
// top 7 bits, so a bucket is at most 1/64 of its value wide. Quantiles
// interpolate linearly inside the bucket, so a reported percentile moves
// smoothly with the data instead of snapping to bucket bounds. A hist is not
// safe for concurrent use; each goroutine fills its own and merges at the end.
type hist struct {
	counts [59 << subBits]uint64
	n      uint64
	sum    float64
}

const subBits = 6

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>uint(shift)) - 1<<subBits
}

// bucketRange returns bucket i's lowest value and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	m := uint64(i&(1<<subBits-1) + 1<<subBits)
	return float64(m << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
}

func (h *hist) addDur(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.add(uint64(d))
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile (0 < q < 1), or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// median estimates the median of the population xs was drawn from with the
// Harrell-Davis estimator: a weighted mean of all order statistics, with
// weights from a beta distribution centred on the middle rank. Unlike the
// sample median it moves smoothly when samples cluster in separate modes
// (commits with and without a device grow, seconds with and without a
// noisy neighbour), so a run's figure jumps less between runs. It returns 0
// for no samples; xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	a := float64(n+1) / 2
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(float64(i)/float64(n), a, a)
		est += (cur - prev) * xs[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), evaluated
// with the continued fraction of Numerical Recipes (betacf).
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-13 {
			break
		}
	}
	return h
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// series splits a measured window into fixed slices with one histogram
// each. A run reports the median over its complete slices, so one disturbed
// slice (a GC cycle, a descheduled core) moves a figure by one rank instead
// of skewing it.
type series struct {
	start  time.Time
	width  time.Duration
	slices []hist
}

func newSeries(start time.Time, width time.Duration, n int) *series {
	return &series{start: start, width: width, slices: make([]hist, n+1)}
}

// add records v in the slice that holds time at; samples past the last
// slice land in an overflow slice that reports ignore.
func (s *series) add(at time.Time, v time.Duration) {
	i := int(at.Sub(s.start) / s.width)
	if i < 0 {
		i = 0
	} else if i >= len(s.slices) {
		i = len(s.slices) - 1
	}
	s.slices[i].addDur(v)
}

func (s *series) merge(o *series) {
	for i := range s.slices {
		s.slices[i].merge(&o.slices[i])
	}
}

// full returns the complete slices of a window that ended at end.
func (s *series) full(end time.Time) []hist {
	n := int(end.Sub(s.start) / s.width)
	if n > len(s.slices)-1 {
		n = len(s.slices) - 1
	}
	return s.slices[:n]
}

// sliceQuantile returns the median over slices of each slice's q-quantile.
func sliceQuantile(slices []hist, q float64) float64 {
	var xs []float64
	for i := range slices {
		if slices[i].n > 0 {
			xs = append(xs, slices[i].quantile(q))
		}
	}
	return median(xs)
}

// sliceRate returns the median over slices of samples per second, each
// sample standing for weight events.
func sliceRate(slices []hist, width time.Duration, weight float64) float64 {
	var xs []float64
	for i := range slices {
		xs = append(xs, float64(slices[i].n)*weight/width.Seconds())
	}
	return median(xs)
}

// logWindow prints each slice's sample count and p99, and the commit
// durations, to stderr: the raw figures behind a run's medians.
func logWindow(name string, slices []hist, commitsMs []float64) {
	fmt.Fprintf(stderr, "%s slices (samples, p99 us):", name)
	for i := range slices {
		fmt.Fprintf(stderr, " %d/%.1f", slices[i].n, slices[i].quantile(0.99)/1e3)
	}
	fmt.Fprintln(stderr)
	if len(commitsMs) > 0 {
		fmt.Fprintf(stderr, "%s commits (ms):", name)
		for _, c := range commitsMs {
			fmt.Fprintf(stderr, " %.1f", c)
		}
		fmt.Fprintln(stderr)
	}
}
