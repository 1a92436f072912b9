package main

import "sort"

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals, interpolating
// linearly between the two closest ranks. vals need not be sorted; an empty
// slice reads 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// summary is the sample count, median and quartiles of one timing, printed
// on the info line beside every end-to-end metric.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(vals []float64) summary {
	return summary{N: len(vals), Q1: quantile(vals, 0.25), Median: median(vals), Q3: quantile(vals, 0.75)}
}
