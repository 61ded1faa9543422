package main

import (
	"fmt"
	"math"
	"time"
)

// selfCheck checks the benchmark's own arithmetic on inputs with known
// answers: the tail-percentile rule, quantile interpolation, self-time
// peeling and freshness matching. It returns one message per failure.
func selfCheck() []string {
	var fails []string
	near := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			fails = append(fails, fmt.Sprintf("%s = %v, want %v", what, got, want))
		}
	}

	// A percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n           int
		limit, want float64
	}{
		{1000, 0.99, 0.99}, {999, 0.99, 0.95}, {200, 0.99, 0.95}, {199, 0.99, 0.90},
		{100, 0.90, 0.90}, {99, 0.90, 0.75}, {20000, 0.99, 0.99}, {20000, 0.999, 0.999}, {19, 0.99, 0}, {20, 0.99, 0.5},
	} {
		near(fmt.Sprintf("tailLevel(%d, %g)", c.n, c.limit), tailLevel(c.n, c.limit), c.want)
	}
	near("minSamples(0.99)", float64(minSamples(0.99)), 1000)
	near("minSamples(0.90)", float64(minSamples(0.90)), 100)
	near("minSamples(0.95)", float64(minSamples(0.95)), 200)

	// Quantiles interpolate between closest ranks.
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	near("quantile(p50)", quantile(vals, 0.5), 5.5)
	near("quantile(p90)", quantile(vals, 0.9), 9.1)
	near("quantile(p0)", quantile(vals, 0), 1)
	near("quantile(p100)", quantile(vals, 1), 10)
	s := summarize(append(make([]float64, 0, 1000), seq(1000)...), 0.99)
	near("summarize.TailAt", s.TailAt, 0.99)
	near("summarize.Tail", s.Tail, quantile(seq(1000), 0.99))

	// A p99 over 3000 samples is the median of the p99s of three
	// 1000-sample time segments: one slow segment moves its own tail only.
	var timed []sample
	epoch := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range 3000 {
		lat := time.Millisecond
		if i >= 1000 && i < 2000 {
			lat = 100 * time.Millisecond
		}
		timed = append(timed, sample{at: epoch.Add(time.Duration(3000-i) * time.Second), lat: lat})
	}
	ts := summarizeTimed(timed, time.Millisecond, 0.99)
	near("summarizeTimed.Segments", float64(ts.Segments), 3)
	near("summarizeTimed.Tail", ts.Tail, 1)
	near("summarizeTimed.Overall", ts.Overall, 100)
	near("summarizeTimed.P50", ts.P50, 1)
	near("summarizeTimed(1999).Segments", float64(summarizeTimed(timed[:1999], time.Millisecond, 0.99).Segments), 0)

	// Self time is a layer's time minus its child layers' on the same
	// input: outer(100) ⊃ mid(60) ⊃ {leafA(20), leafB(30)} gives selfs
	// 40, 10, 20, 30, which sum back to the outermost time.
	times := [][]float64{{100, 200}, {60, 150}, {20, 50}, {30, 70}}
	self := selfTimes(times, []int{-1, 0, 1, 1})
	wantSelf := [][]float64{{40, 50}, {10, 30}, {20, 50}, {30, 70}}
	for i := range wantSelf {
		for k := range wantSelf[i] {
			near(fmt.Sprintf("self[%d][%d]", i, k), self[i][k], wantSelf[i][k])
		}
	}
	for k := range 2 {
		sum := 0.0
		for i := range self {
			sum += self[i][k]
		}
		near(fmt.Sprintf("self sum input %d", k), sum, times[0][k])
	}

	// Freshness: each acked batch matches the first version (lowest id)
	// whose observation count covers the estimator's cumulative count.
	t0 := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	versions := []seenVersion{
		{id: 3, observations: 64, created: ms(300)},
		{id: 1, observations: 40, created: ms(0)},
		{id: 2, observations: 48, created: ms(100)},
	}
	lags, unc := freshness([]ackedBatch{
		{need: 48, ack: ms(50)}, // version 2
		{need: 56, ack: ms(60)}, // version 3: version 2 holds only 48
		{need: 64, ack: ms(70)}, // version 3
		{need: 72, ack: ms(80)}, // nothing covers it yet
	}, versions)
	if unc != 1 || len(lags) != 3 {
		fails = append(fails, fmt.Sprintf("freshness matched %d, uncovered %d; want 3 and 1", len(lags), unc))
	} else {
		for i, want := range []time.Duration{50 * time.Millisecond, 240 * time.Millisecond, 230 * time.Millisecond} {
			near(fmt.Sprintf("freshness lag %d", i), float64(lags[i]), float64(want))
		}
	}
	return fails
}

// seq returns 1..n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}
