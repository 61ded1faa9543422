package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// tailLevels are the percentiles a timing's tail may be reported at, in
// increasing order.
var tailLevels = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// tailLevel returns the highest percentile in tailLevels, capped at limit,
// that leaves at least ten of n samples beyond it: n·(1−p) ≥ 10. It returns
// 0 when even the median has fewer than ten samples beyond it.
func tailLevel(n int, limit float64) float64 {
	best := 0.0
	for _, p := range tailLevels {
		if p > limit+1e-12 {
			break
		}
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// minSamples returns the smallest sample count at which percentile p has
// at least ten samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(10/(1-p) - 1e-9))
}

// quantile returns the p-quantile of sorted values by linear interpolation
// between closest ranks (the same rule as numpy's default and Python's
// statistics.quantiles "inclusive" method).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// summary is a timing or value distribution reduced to what the benchmark
// reports: sample count, median, and one tail percentile.
type summary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	Tail     float64 `json:"tail"`
	TailAt   float64 `json:"tail_at"`            // the percentile Tail was read at
	Want     float64 `json:"want"`               // the percentile the metric's name promises
	Segments int     `json:"segments,omitempty"` // time segments Tail is the median over
	Overall  float64 `json:"overall,omitempty"`  // the tail over all samples at once
}

// summarize sorts a copy of values and reads the median and the tail at
// want. When fewer samples exist than want needs (ten beyond it), the tail
// is read at the highest percentile the samples support and TailAt says
// which; the report flags it.
func summarize(values []float64, want float64) summary {
	s := slices.Clone(values)
	sort.Float64s(s)
	at := tailLevel(len(s), want)
	return summary{N: len(s), P50: quantile(s, 0.5), Tail: quantile(s, at), TailAt: at, Want: want}
}

// short reports whether the tail could not be read at the promised
// percentile.
func (s summary) short() bool { return s.TailAt < s.Want }

// sample is one timed request: when it started (or was due) and how long
// it took.
type sample struct {
	at  time.Time
	lat time.Duration
}

// summarizeTimed summarizes latencies in the given unit. When the run holds
// at least two segments' worth of samples for the promised percentile
// (minSamples each), the tail is read in every consecutive time segment and
// Tail is the median of those: a burst of noise on a shared machine then
// moves one segment's tail, not the run's. Overall keeps the tail over all
// samples at once.
func summarizeTimed(ss []sample, unit time.Duration, want float64) summary {
	ss = slices.Clone(ss)
	sort.Slice(ss, func(i, j int) bool { return ss[i].at.Before(ss[j].at) })
	vals := make([]float64, len(ss))
	for i, x := range ss {
		vals[i] = float64(x.lat) / float64(unit)
	}
	sum := summarize(vals, want)
	k := len(vals) / minSamples(want)
	if k < 2 {
		return sum
	}
	sum.Overall, sum.Segments = sum.Tail, k
	tails := make([]float64, k)
	for i := range tails {
		seg := slices.Clone(vals[i*len(vals)/k : (i+1)*len(vals)/k])
		sort.Float64s(seg)
		tails[i] = quantile(seg, want)
	}
	sort.Float64s(tails)
	sum.Tail = quantile(tails, 0.5)
	return sum
}

// durations converts a slice of durations to values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// selfTimes peels layers measured on the same inputs: times[i][k] is input
// k's time at layer i, and parent[i] the layer whose call encloses layer
// i's (−1 for the outermost). Layer i's self time on input k is its time
// minus its child layers' times on input k. Summarized over inputs, the
// per-layer medians sum to the outermost median only as far as the layers'
// times move together, which is what the self-time check tests.
func selfTimes(times [][]float64, parent []int) [][]float64 {
	out := make([][]float64, len(times))
	for i := range times {
		out[i] = slices.Clone(times[i])
	}
	for i, p := range parent {
		if p < 0 {
			continue
		}
		for k, v := range times[i] {
			out[p][k] -= v
		}
	}
	return out
}

// ackedBatch is one acknowledged observe batch for freshness matching:
// need is the estimator's cumulative accepted-observation count once the
// batch is in, ack the time the client saw the acknowledgment.
type ackedBatch struct {
	need uint64
	ack  time.Time
}

// seenVersion is one serving version as GET /v1/{name}/versions reported it.
type seenVersion struct {
	id           int
	observations uint64
	created      time.Time
}

// freshness matches each acked batch to the first serving version (lowest
// id) whose observation count covers it and returns created − ack for each
// matched batch, plus the number of batches no version covers yet.
func freshness(batches []ackedBatch, versions []seenVersion) (lags []time.Duration, uncovered int) {
	vs := slices.Clone(versions)
	sort.Slice(vs, func(i, j int) bool { return vs[i].id < vs[j].id })
	for _, b := range batches {
		found := false
		for _, v := range vs {
			if v.observations >= b.need {
				lags = append(lags, v.created.Sub(b.ack))
				found = true
				break
			}
		}
		if !found {
			uncovered++
		}
	}
	return lags, uncovered
}
