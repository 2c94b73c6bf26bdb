package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hbbp"
)

// quantile is the nearest-rank q-quantile (q in (0, 1]) of the
// samples in milliseconds; 0 when there are none.
func quantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return ms(s[max(i, 0)])
}

// meanMs is the mean of the samples in milliseconds.
func meanMs(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return ms(sum) / float64(len(samples))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// tailPercentile names the highest of p99, p95, p90, p75 and p50 that
// has at least ten samples beyond it: p99 needs 1,000 samples.
func tailPercentile(n int) (string, float64) {
	for _, p := range []int{99, 95, 90, 75} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return fmt.Sprintf("p%d", p), float64(p) / 100
		}
	}
	return "p50", 0.5
}

// median of a non-empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counters is a flat read of a telemetry registry: counter and gauge
// values under "name{labels}", histogram counts and sums under
// "name{labels}:count" and "name{labels}:sum" (sums in base units).
type counters map[string]float64

func readCounters(reg *hbbp.Telemetry) counters {
	c := make(counters)
	for _, m := range reg.Snapshot() {
		key := m.Name + "{" + m.Labels + "}"
		if m.Type == "histogram" {
			c[key+":count"] = float64(m.Count)
			c[key+":sum"] = m.Sum
			continue
		}
		c[key] = m.Value
	}
	return c
}

// since is c minus an earlier read: what happened in between.
func (c counters) since(earlier counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - earlier[k]
	}
	return d
}

// histMean is a histogram's sum/count over the interval.
func (c counters) histMean(key string) float64 {
	return ratio(c[key+":sum"], c[key+":count"])
}
