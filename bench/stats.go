package main

import (
	"sort"
	"time"
)

// median of the values (mean of the middle two for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentileUS is the q-quantile (nearest rank) of the sorted
// durations, in microseconds.
func percentileUS(sorted []time.Duration, q float64) float64 {
	i := min(int(q*float64(len(sorted))), len(sorted)-1)
	return float64(sorted[i].Nanoseconds()) / 1e3
}
