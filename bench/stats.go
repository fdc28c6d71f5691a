package main

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// quantile is the q-quantile of ds in the floor convention every
// reporting tool of this repository shares (metrics.Durations).
func quantile(ds []time.Duration, q float64) time.Duration {
	rec := metrics.NewDurations(len(ds))
	for _, d := range ds {
		rec.Observe(d)
	}
	return rec.Quantile(q)
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// windowQuantiles cuts one op kind's samples into the stage's windows
// and takes the q-quantile of each. A failed op has no latency of its
// own: it counts as slow as the slowest op of its window.
func windowQuantiles(samples []sample, kind opKind, windows int, q float64) []time.Duration {
	in := func(s sample) bool { return s.kind == kind && s.window >= 0 && s.window < windows }
	worst := make([]time.Duration, windows)
	for _, s := range samples {
		if in(s) && s.lat > worst[s.window] {
			worst[s.window] = s.lat
		}
	}
	byWindow := make([][]time.Duration, windows)
	for _, s := range samples {
		if !in(s) {
			continue
		}
		if s.failed {
			s.lat = worst[s.window]
		}
		byWindow[s.window] = append(byWindow[s.window], s.lat)
	}
	out := make([]time.Duration, windows)
	for w, lats := range byWindow {
		out[w] = quantile(lats, q)
	}
	return out
}

// calmest is the named latency metric: the q-quantile of the window in
// which it was lowest. The sandbox is shared and its speed drifts by a
// tenth or more over tens of seconds; interference only ever adds
// latency, so the calmest window is the one that says most about the
// program, and it is the estimate that repeats best (README.md).
func calmest(samples []sample, kind opKind, windows int, q float64) time.Duration {
	var best time.Duration
	for _, d := range windowQuantiles(samples, kind, windows, q) {
		if d > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return best
}

// windowCounts is the number of ops in each window.
func windowCounts(samples []sample, windows int) []int {
	n := make([]int, windows)
	for _, s := range samples {
		n[s.window]++
	}
	return n
}

// latencies returns one op kind's latencies, failed ops left out.
func latencies(samples []sample, kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.kind == kind && !s.failed {
			out = append(out, s.lat)
		}
	}
	return out
}

// spread is the distance between the first and third quartile of xs as
// a share of their median, the way Python's statistics.quantiles(xs,
// n=4) cuts them (exclusive method), and the median itself.
func spread(xs []float64) (share, med float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 { // position p*(n+1), 1-based, interpolated
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	if len(s) == 0 {
		return 0, 0
	}
	med = at(0.5)
	if len(s) < 2 || med == 0 {
		return 0, med
	}
	return (at(0.75) - at(0.25)) / med, med
}
