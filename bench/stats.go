package main

import (
	"math"
	"sort"
	"time"
)

// summary is the order statistics of one metric over a run's reps.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile interpolates linearly between the order statistics of the
// sorted slice s (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile range as a share of the median — the
// steadiness figure the benchmark's bounds are sized against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// timeBox decides when a run stops repeating its cell: it keeps going
// until both the time box has elapsed and the rep floor is met, and
// never past the cap.
type timeBox struct {
	box   time.Duration
	floor int
	cap   int
}

func (b timeBox) more(reps int, elapsed time.Duration) bool {
	if reps >= b.cap {
		return false
	}
	return reps < b.floor || elapsed < b.box
}

// shares turns per-layer (count × unit cost) products into fractions of
// one rep's wall time. The remainder is reported as unattributed, so the
// set always sums to exactly 1; a negative remainder means the probes'
// standalone unit costs overestimate the in-situ cost.
func shares(layerNs map[string]float64, repNs float64) (map[string]float64, float64) {
	out := make(map[string]float64, len(layerNs))
	if repNs <= 0 {
		return out, 1
	}
	sum := 0.0
	for layer, ns := range layerNs {
		out[layer] = ns / repNs
		sum += out[layer]
	}
	return out, 1 - sum
}

// relDiff is how much worse b is than a, as a share of a, for a
// lower-is-better metric.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}
