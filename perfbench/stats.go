package main

import (
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not modify xs. The median of nothing is NaN,
// which the output check rejects.
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

// trimShare is the share of iterations trimmed from each end of a run's
// host-time figures before they are averaged.
const trimShare = 0.1

// trimmedMean returns the mean of xs once the lowest and the highest
// floor(share*len(xs)) values are left out. It does not modify xs. The
// trimmed mean of nothing is NaN, which the output check rejects.
func trimmedMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(share * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method — the one Python's statistics.quantiles(xs, n=4) uses by default,
// which is how run-to-run spread is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld := len(s)
	// The same integer arithmetic as CPython: cut point i of 4 sits at
	// position i(ld+1)/4 of the 1-based order statistics, with the index
	// clamped to 1..ld-1 and the weight left unclamped.
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median — the
// steadiness figure a metric's bound is compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric.
func validName(s string) bool { return metricName.MatchString(s) }
