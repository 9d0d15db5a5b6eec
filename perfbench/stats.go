package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is not modified. +Inf values
// (refused or failed jobs) sort last, so they push the tail up.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond reports how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}
