package main

import (
	"math"
	"sort"
	"syscall"
)

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics. v need not be sorted; an empty v reads 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread is the interquartile range of v over its median: the same
// run-to-run noise measure the driver applies to whole runs (Python's
// statistics.quantiles(v, n=4), the exclusive method), here applied to the
// per-round medians of one run.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / med
}

// allEqual reports whether every reading of a count repeated exactly.
func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

// cpuSeconds is the process's user+system CPU time so far. Linux scales
// the two so their sum equals the scheduler's nanosecond run time, so the
// sum (not either part) is precise over short intervals.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
