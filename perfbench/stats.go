package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones the
// acceptance check recomputes from a batch of runs. A single value is
// its own quartiles; an empty sample gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentiles are the percentiles a latency sample may be
// summarised by, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// supportedPercentile returns the highest of tailPercentiles that has
// at least ten samples beyond it in a sample of n, and false when even
// the median has fewer than ten beyond it. A percentile with fewer
// samples past it is one outlier away from a different number.
func supportedPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		// Samples strictly above the nearest-rank position.
		if n-rankIndex(p, n)-1 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// rankIndex is the zero-based nearest-rank index of percentile p in a
// sorted sample of n. The epsilon keeps float rounding (0.999*10000 is
// 9990.000000000002) from pushing an exact rank one place up.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank percentile p of xs, or NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankIndex(p, len(s))]
}
