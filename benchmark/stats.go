package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank rule, or 0 for an empty sample. vals is not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), because
// that is what the acceptance rule computes spreads with. Needs len >= 2.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4;
		// result = (s[j-1]*(4-delta) + s[j]*delta) / 4.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// ratio is a/b with 0 for an empty base, so an absent layer reads as 0
// rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
