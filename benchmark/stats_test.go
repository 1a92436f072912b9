package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		vals []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{5, 1, 3, 2, 4}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{0, 10}, 0.9, 9},
	}
	for _, c := range cases {
		if got := quantile(c.vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.vals, c.q, got, c.want)
		}
	}
	// The input must not be reordered.
	vals := []float64{3, 1, 2}
	quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Errorf("quantile reordered its input: %v", vals)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{9, 1, 5, 3, 7})
	if s.N != 5 || s.Q1 != 3 || s.Median != 5 || s.Q3 != 7 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfNS(t *testing.T) {
	spans := []span{
		{Name: "rep", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 0, EndNS: 30, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 90, Parent: 0},
	}
	self := selfNS(spans)
	if self[0] != 10 || self[1] != 30 || self[2] != 60 {
		t.Errorf("selfNS = %v, want [10 30 60]", self)
	}
}
