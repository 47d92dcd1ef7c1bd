package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantile is p90, or p75 when p90 has fewer than ten samples
// beyond it, or the median when p75 has too. On a shared two-core VM
// p99 of the daemon workloads moved from run to run by more than the
// benchmark's bound on its own; p90 moves about as much as the median.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.9, 0.75} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// latencies is a sample of one operation class, in milliseconds.
type latencies []float64

func (l latencies) p50() float64  { return median(l) }
func (l latencies) tail() float64 { return quantile(l, tailQuantile(len(l))) }

// tailLabel names the tail percentile, e.g. "p90".
func (l latencies) tailLabel() string {
	q := tailQuantile(len(l))
	return "p" + fmt.Sprint(math.Round(q*1000)/10)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
