package main

import (
	"math"
	"sort"
)

// rng is SplitMix64: the benchmark's only source of randomness, so one
// seed fixes every job list and request sequence.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// minBeyond is the reporting rule for percentiles: a percentile is
// printed only when at least this many samples lie beyond it.
const minBeyond = 10

// quantile is one reported percentile with the evidence behind it.
type quantile struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// quantileWindow is the half-width, in quantile units, of the window
// of ranks a percentile averages.
const quantileWindow = 0.02

// percentile returns the q-quantile of sorted, the mean of the samples
// whose nearest ranks lie between the (q−quantileWindow)- and the
// (q+quantileWindow)-quantile, and the number of samples above that
// window. A phase runs one job list over and over, so its samples
// come in groups, one per job. A single nearest rank falls at a fixed
// place in the job list, often on the fastest copies of one job, and
// which copy it picks changes with the number of passes a run fits
// in. The window averages the jobs around the rank instead.
func percentile(sorted []float64, q float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	lo, hi := nearestRank(q-quantileWindow, n), nearestRank(q+quantileWindow, n)
	return quantile{Value: mean(sorted[lo : hi+1]), Samples: n, Beyond: n - 1 - hi}
}

// nearestRank is the 0-based nearest rank of the q-quantile of n
// samples. The small offset keeps 0.9−0.02 from rounding up a rank.
func nearestRank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9))-1, 0), n-1)
}

// ok reports whether the percentile meets the reporting rule.
func (q quantile) ok() bool { return q.Beyond >= minBeyond }

// minSamplesFor is the smallest sample count whose q-percentile has
// minBeyond samples beyond it.
func minSamplesFor(q float64) int {
	for n := 1; ; n++ {
		if percentile(make([]float64, n), q).ok() {
			return n
		}
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
