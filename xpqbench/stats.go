package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs, and whether at
// least minBeyond samples lie beyond it (a p99 needs 1000 samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return xs[r-1], n-r >= minBeyond
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed is one latency sample (ms) and when its request fell due.
type timed struct {
	due time.Time
	ms  float64
}

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// maxWindows caps how many windows a timed phase is split into.
const maxWindows = 20

// The windowed latency metrics report a quantile of their per-window
// values. On a shared VM a CPU-bound loop slows by half for several
// seconds at a time. Such an episode inflates the tail of every window
// it covers, so a p99 (printed, not gated) is the lower quartile of its
// windows, the level of the run's undisturbed three quarters. A p50,
// which an episode moves less than the windows' own noise, is their
// median.

// windowLevelFor is the quantile of per-window values reported for a
// per-window q-quantile.
func windowLevelFor(q float64) float64 {
	if q >= 0.9 {
		return 0.25
	}
	return 0.5
}

// minWindow is the fewest samples a window may hold, so that a window's
// request mix stays close to the workload's.
const minWindow = 250

// windowLevel is the q-quantile (nearest rank) of per-window values.
func windowLevel(per []float64, q float64) float64 {
	v, _ := quantile(append([]float64(nil), per...), q)
	return v
}

// windowedQuantile splits the phase [start, start+span) into as many
// equal windows (up to maxWindows) as leave at least minWindow samples
// and minBeyond samples beyond the q-quantile in every window, and
// returns windowLevelFor(q) of the per-window quantiles, and those. ok
// is false when even one window has too few samples.
func windowedQuantile(xs []timed, start time.Time, span time.Duration, q float64) (float64, []float64, bool) {
	for w := maxWindows; w >= 1; w-- {
		win := make([][]float64, w)
		for _, x := range xs {
			i := int(float64(x.due.Sub(start)) / float64(span) * float64(w))
			i = min(max(i, 0), w-1)
			win[i] = append(win[i], x.ms)
		}
		per := make([]float64, 0, w)
		for _, ys := range win {
			v, ok := quantile(ys, q)
			if !ok || (w > 1 && len(ys) < minWindow) {
				break
			}
			per = append(per, v)
		}
		if len(per) == w {
			return windowLevel(per, windowLevelFor(q)), per, true
		}
	}
	return 0, nil, false
}

// capacityRates returns the rate of successful requests in each whole
// window of length win of a closed-loop phase after its first ramp,
// and the phase's successful request count. A request counts in the
// window in which it completed.
func capacityRates(res loopResult, ramp, win time.Duration) ([]float64, int) {
	rates := make([]float64, max(int((res.elapsed-ramp)/win), 0))
	ok := 0
	for _, s := range res.samples {
		if !s.ok {
			continue
		}
		ok++
		// Division truncates toward zero: test the sign first, or the
		// ramp's last window would count in window 0.
		d := s.due.Add(s.latency).Sub(res.start) - ramp
		if i := int(d / win); d >= 0 && i < len(rates) {
			rates[i] += 1 / win.Seconds()
		}
	}
	return rates, ok
}
