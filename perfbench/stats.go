package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
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

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latSample is how many latencies of one request class latencies keeps.
const latSample = 1 << 16

// latencies keeps a uniform sample of per-class request latencies (µs):
// the first latSample of a class are all kept, and each later one replaces
// a random kept one with the chance that keeps the sample uniform
// (reservoir sampling, from a fixed-seed generator). A closed-loop reader's
// million requests then cost a bounded buffer, not memory in a process
// whose RSS is measured; p50 and p99 keep hundreds of samples on each side.
type latencies struct {
	class [2]latClass // range, kNN
	state uint64      // splitmix64 state of the replacement draws
}

type latClass struct {
	xs []float64
	n  int // samples seen
}

func (l *latencies) add(knn bool, d time.Duration) { l.addUS(knn, us(d)) }

func (l *latencies) addUS(knn bool, x float64) {
	c := &l.class[btoi(knn)]
	c.n++
	if len(c.xs) < latSample {
		c.xs = append(c.xs, x)
		return
	}
	if j := l.next() % uint64(c.n); j < latSample {
		c.xs[j] = x
	}
}

func (l *latencies) next() uint64 {
	l.state += 0x9E3779B97F4A7C15
	z := l.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// merge adds o's samples to l; o must have kept every sample it saw.
func (l *latencies) merge(o *latencies) {
	for k := range o.class {
		for _, x := range o.class[k].xs {
			l.addUS(k == 1, x)
		}
	}
}

// report adds the four read-latency metrics, each with its sample count.
func (l *latencies) report(r *report) {
	for k, name := range [2]string{"range", "knn"} {
		c := &l.class[k]
		base := countBase(c.n, fmt.Sprintf("requests, a uniform sample of %d", len(c.xs)))
		r.e2e(name+"_p50_us", percentile(c.xs, 50), "us", base)
		r.e2e(name+"_p99_us", percentile(c.xs, 99), "us", base)
	}
}
