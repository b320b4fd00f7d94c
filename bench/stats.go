package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because the
// acceptance check of this benchmark is computed with that function. With
// fewer than two samples both quartiles are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// tailPercentile is the reporting rule of the choosing-metrics guide: the
// highest percentile that still has at least ten samples beyond it. It
// returns 0 when that percentile would sit below the median (n < 20), where
// a tail figure means nothing.
func tailPercentile(n int) int {
	if n < 20 {
		return 0
	}
	p := 100 * (n - 10) / n
	if p > 99 {
		p = 99
	}
	return p
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := float64(p) / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// record is the one schema every number of the benchmark is written in.
type record struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// P names the tail percentile PValue holds (66 = p66); 0 when there are
	// too few samples to report one.
	P      int     `json:"p"`
	PValue float64 `json:"p_value"`
	// Bound is the regression bound of an end-to-end metric (share of the
	// median it may worsen by); 0 for per-layer metrics, which have none.
	Bound float64 `json:"bound"`
}

// metric is one named measurement of one workload: its samples (one per
// trial, or a single value for counts and ratios) and its unit.
type metric struct {
	unit    string
	samples []float64
}

func (m metric) value() float64 { return median(m.samples) }

func (m metric) record(workload, name string, bound float64) record {
	q1, q3 := quartiles(m.samples)
	r := record{Workload: workload, Metric: name, Unit: m.unit, N: len(m.samples),
		Median: m.value(), Q1: q1, Q3: q3, Bound: bound}
	if p := tailPercentile(len(m.samples)); p > 0 {
		r.P, r.PValue = p, percentile(m.samples, p)
	}
	return r
}
