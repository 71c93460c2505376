package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (the usual "type 7" definition).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPct is the highest whole percentile that leaves at least ten samples
// above it, or 0 when no percentile above the median does.
func tailPct(n int) int {
	p := int(math.Floor(100 * (1 - 10/float64(n))))
	if p <= 50 {
		return 0
	}
	return min(p, 99)
}

// timing adds a median and tail line for latency samples in ms to the
// report and returns the median.
func (e *env) timing(name string, ms []float64) float64 {
	if len(ms) == 0 {
		e.logf("  %-32s %14s %-6s n=0", name+"_p50_ms", "-", "ms")
		return math.NaN()
	}
	p50 := median(ms)
	e.line(name+"_p50_ms", p50, "ms", fmt.Sprintf("n=%d", len(ms)))
	if p := tailPct(len(ms)); p > 0 {
		e.line(fmt.Sprintf("%s_p%d_ms", name, p), quantile(ms, float64(p)/100), "ms",
			fmt.Sprintf("n=%d, highest percentile with >=10 samples above", len(ms)))
	} else {
		e.line(name+"_max_ms", quantile(ms, 1), "ms",
			fmt.Sprintf("n=%d, too few samples for a tail percentile", len(ms)))
	}
	return p50
}
