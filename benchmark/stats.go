package main

import (
	"math"
	"sort"
)

// metric is one named measurement. Value is the figure the metric reports —
// a median over N samples when N > 1 — and Min/Max are the extremes of the
// same samples, which -compare reads as the run's own spread. Q is the
// quantile actually taken for percentile metrics (see supportedQuantile).
// Samples keeps the readings of whole-call repeats, in order.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min,omitempty"`
	Max     float64   `json:"max,omitempty"`
	N       int       `json:"n,omitempty"`
	Q       float64   `json:"q,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// supportedQuantile lowers q until at least ten samples lie beyond it, with
// the median as the floor: a p90 over 50 samples is reported as the p80 it
// can support, and says so in metric.Q.
func supportedQuantile(n int, q float64) float64 {
	if n > 0 {
		if top := 1 - 10/float64(n); q > top {
			q = top
		}
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q = 0.5 is the usual median). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// summarize reports the q-quantile of xs the sample supports, with the
// extremes and the count.
func summarize(xs []float64, q float64, unit string) metric {
	q = supportedQuantile(len(xs), q)
	m := metric{Value: quantile(xs, q), Unit: unit, N: len(xs), Q: q}
	m.Min, m.Max = m.Value, m.Value
	for _, x := range xs {
		m.Min = math.Min(m.Min, x)
		m.Max = math.Max(m.Max, x)
	}
	return m
}

// median is the plain p50 summary used for repeats of a whole call, where
// the sample is a handful of values and no tail is claimed.
func median(xs []float64, unit string) metric { return summarize(xs, 0.5, unit) }

// repeats is median keeping the individual readings.
func repeats(xs []float64, unit string) metric {
	m := median(xs, unit)
	m.Samples = xs
	return m
}

// value wraps a single reading.
func value(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

// fitLine is the least-squares line y = base + slope·x — the measured twin
// of serve.ServiceModel when x is a batch size and y its forward time.
func fitLine(x, y []float64) (base, slope float64) {
	n := float64(len(x))
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	return (sy - slope*sx) / n, slope
}
