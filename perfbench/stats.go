package main

import (
	"math"
	"sort"
)

// Median of xs, interpolating between the two middle values of an even
// count. NaN for no samples.
func Median(xs []float64) float64 {
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

// Tail is the highest percentile of a sample that still has at least
// MinBeyond samples above it.
type Tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
	Beyond     int     `json:"beyond"`
}

// MinBeyond is how many samples must lie beyond a reported tail.
const MinBeyond = 10

// TailPercentile picks the sorted sample at index n-1-MinBeyond: the
// highest order statistic with MinBeyond samples beyond it. Its
// percentile is the share of samples at or below it. ok is false when
// the sample has no such order statistic (n <= MinBeyond).
func TailPercentile(xs []float64) (Tail, bool) {
	n := len(xs)
	if n <= MinBeyond {
		return Tail{N: n}, false
	}
	s := sorted(xs)
	i := n - 1 - MinBeyond
	return Tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), N: n, Beyond: n - 1 - i}, true
}

// Quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so the spreads printed here match the ones
// computed from the JSON results.
func Quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// Ratio is num/den with both counts kept, so a zero denominator (a
// layer idle on this workload) reads as 0 with den 0 rather than NaN.
type Ratio struct {
	Value float64 `json:"value"`
	Num   int64   `json:"num"`
	Den   int64   `json:"den"`
}

// NewRatio builds a Ratio; den == 0 gives Value 0.
func NewRatio(num, den int64) Ratio {
	r := Ratio{Num: num, Den: den}
	if den != 0 {
		r.Value = float64(num) / float64(den)
	}
	return r
}

// perReq divides a total by a request count, 0 for no requests.
func perReq(total float64, reqs int) float64 {
	if reqs == 0 {
		return 0
	}
	return total / float64(reqs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
