package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest ranks (the "type 7" rule numpy and R use by default).
// It returns NaN for an empty sample, so a missing metric never reads as
// a plausible zero.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile: a percentile
// is only reported as measured when at least ten samples lie past it.
func beyond(xs []float64, q float64) int {
	if len(xs) == 0 {
		return 0
	}
	cut := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// frac is num/den, with an empty denominator reading as NaN rather than
// as a perfect or a failed score.
func frac(num, den int) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}

// ratio is num/den for already-accumulated totals, NaN on a zero base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
