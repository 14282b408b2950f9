package main

import (
	"math"
	"sort"
)

// series is a set of samples of one quantity (latencies in ms, ratios,
// counts). The benchmark reports medians and a high percentile of a
// series together with its sample count.
type series struct {
	vals []float64
}

func (s *series) add(v float64) { s.vals = append(s.vals, v) }

func (s *series) n() int {
	if s == nil {
		return 0
	}
	return len(s.vals)
}

// pct is the p-quantile (0 <= p <= 1) of the samples, 0 when empty.
func (s *series) pct(p float64) float64 {
	if s.n() == 0 {
		return 0
	}
	return percentile(s.vals, p)
}

func (s *series) median() float64 { return s.pct(0.5) }

func (s *series) sum() float64 {
	t := 0.0
	if s != nil {
		for _, v := range s.vals {
			t += v
		}
	}
	return t
}

// percentile returns the p-quantile of xs by linear interpolation
// between the two closest ranks (the "inclusive" method: p=0 is the
// minimum, p=1 the maximum). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// geomean is the geometric mean of strictly positive values; it returns
// 0 when xs is empty or holds a value <= 0 (a geomean of such values is
// undefined, and 0 is never a valid latency).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
