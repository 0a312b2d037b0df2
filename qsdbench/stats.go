package main

import (
	"math"
	"sort"
	"time"
)

// summary is the spread of one metric's samples within a run.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs.  The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the printed values.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	q := quartiles(s)
	return summary{Median: median(s), P25: q[0], P75: q[2], N: len(s)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of sorted s.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted s by the exclusive method, exactly as Python
// computes it: cut i of 3 sits at position i(m+1)/4, its lower index
// clamped to 1..m-1 and the value interpolated (or extrapolated) from the
// two samples around it.
func quartiles(s []float64) [3]float64 {
	m := len(s)
	if m == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// percentile returns the q-quantile (0..1) of sorted s by the nearest-rank
// method: the smallest sample with at least q of the samples at or below it.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
