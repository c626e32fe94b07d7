package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// quantile: with fewer, the value is one or two outliers, not a percentile.
const minBeyond = 10

// supportedQ returns the highest quantile not above q that still has
// minBeyond samples beyond it in a sample of n, and whether that is q itself.
// The median is always reported, however small the sample.
func supportedQ(n int, q float64) (float64, bool) {
	if q <= 0.5 || float64(n)*(1-q) >= minBeyond-1e-9 { // 100*(1-0.9) is a hair under 10 in floating point
		return q, true
	}
	if n <= 2*minBeyond {
		return 0.5, false
	}
	return 1 - float64(minBeyond)/float64(n), false
}

// quantileSorted is the nearest-rank quantile of an ascending sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quantile sorts a copy of xs and reports the supported quantile nearest q
// from below, with the quantile actually used.
func quantile(xs []float64, q float64) (value, usedQ float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	usedQ, _ = supportedQ(len(s), q)
	return quantileSorted(s, usedQ), usedQ
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowOf maps an offset from the start of the measured interval to its
// window, or -1 when the offset lies outside the interval.
func windowOf(offsetNS, windowNS int64, windows int) int {
	if offsetNS < 0 || windowNS <= 0 {
		return -1
	}
	w := int(offsetNS / windowNS)
	if w >= windows {
		return -1
	}
	return w
}

// windowsFor cuts a measured interval into two-second windows (one window
// when the interval is shorter than four seconds).
func windowsFor(seconds int) int {
	if w := seconds / 2; w > 1 {
		return w
	}
	return 1
}

// bestWindowQuantile is the timing rule of the benchmark: the quantile of
// each window's samples, then the lowest over the windows. Whatever else
// runs on the machine only ever makes a window slower, so the quickest
// window is the nearest a run gets to the program's own speed, and it moves
// least from run to run. When a window holds too few samples for q to have
// minBeyond samples beyond it, adjacent windows are merged (10 into 5, 2,
// then 1) until it does; if even the whole interval is too small, the
// highest quantile it supports stands in for q. It returns the value, the
// quantile used, the windows used and the sample count.
func bestWindowQuantile(perWindow [][]float64, q float64) (value, usedQ float64, windows, n int) {
	for _, w := range perWindow {
		n += len(w)
	}
	for k := len(perWindow); k >= 1; k-- {
		if len(perWindow)%k != 0 {
			continue
		}
		merged := mergeWindows(perWindow, k)
		ok := true
		for _, w := range merged {
			if _, full := supportedQ(len(w), q); !full {
				ok = false
			}
		}
		if !ok && k > 1 {
			continue
		}
		usedQ, value = q, math.Inf(1)
		for _, w := range merged {
			if len(w) == 0 {
				continue
			}
			v, u := quantile(w, q)
			usedQ, value = min(usedQ, u), min(value, v)
		}
		if math.IsInf(value, 1) {
			value = 0
		}
		return value, usedQ, k, n
	}
	return 0, q, 0, 0
}

// mergeWindows joins consecutive windows so that k remain; k divides their
// number.
func mergeWindows(perWindow [][]float64, k int) [][]float64 {
	per := len(perWindow) / k
	out := make([][]float64, k)
	for i, w := range perWindow {
		out[i/per] = append(out[i/per], w...)
	}
	return out
}

// openLoopLatency is the latency of an open-loop request: from when it was
// due, so the wait a stall imposes on the requests behind it is counted.
func openLoopLatency(dueNS, doneNS int64) int64 { return doneNS - dueNS }

// generatorLateness is how late the generator itself sent a request: the
// send time past the later of the due time and the moment the connection
// became free. Waiting for the server's previous answer is the program's
// delay and is already in openLoopLatency; this is the harness's own.
func generatorLateness(dueNS, connFreeNS, sentNS int64) int64 {
	ready := dueNS
	if connFreeNS > ready {
		ready = connFreeNS
	}
	if sentNS < ready {
		return 0
	}
	return sentNS - ready
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the same quartile method as Python's
// statistics.quantiles(values, n=4) (exclusive).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(m)
}
