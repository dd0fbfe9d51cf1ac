package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the two middle values for even lengths); 0 when empty.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile (0 < p <= 1): the smallest
// sample with at least p·n samples at or below it. 0 when empty.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie past the p-quantile of n samples. A
// percentile is only reported as steady when at least ten do.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (method "exclusive") gives them, which is
// what the acceptance procedure for this benchmark uses. Needs len(v) >= 2;
// shorter inputs return the single value (or 0) twice.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
