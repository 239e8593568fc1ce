package main

import (
	"fmt"
	"math"
	"sort"
)

// tailGrid is the percentile ladder tail metrics choose from: the
// highest one with at least minBeyond samples above it. The sample
// counts of a workload are fixed by its run length, so the chosen
// percentile is the same on every run of that workload.
var tailGrid = []float64{99.9, 99.75, 99, 95, 90, 50}

const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p among
// n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// pct returns the nearest-rank percentile p of xs, which must be sorted.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[rank(p, len(xs))-1]
}

// tailPct picks the highest percentile of tailGrid with at least
// minBeyond of n samples beyond it.
func tailPct(n int) float64 {
	for _, p := range tailGrid {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return pct(sorted(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// latency summarizes one class of timed operations.
type latency struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
	beyond  int
}

func summarize(ms []float64) latency {
	s := sorted(ms)
	l := latency{n: len(s)}
	if len(s) == 0 {
		return l
	}
	l.p50 = pct(s, 50)
	l.tailPct = tailPct(len(s))
	l.tail = pct(s, l.tailPct)
	l.beyond = len(s) - rank(l.tailPct, len(s))
	return l
}

func (l latency) String() string {
	return fmt.Sprintf("n=%d p50=%.4f ms p%g=%.4f ms (%d samples beyond)", l.n, l.p50, l.tailPct, l.tail, l.beyond)
}

// classCheck reports where percentile p of a labelled sample set falls
// relative to the class boundaries, so a reader can see that p50 and
// the tail do not sit on the edge between two classes of operation
// (where a small shift in the class mix would jump the value between
// classes). Classes are ordered by their median; a class then spans
// [a, b] of the cumulative share, and the margin is p's distance to the
// nearer edge as a share of the class's own width.
type classSpan struct {
	name   string
	n      int
	median float64
	lo, hi float64 // cumulative share bounds, in percent
}

func classSpans(ms []float64, labels []string) []classSpan {
	by := map[string][]float64{}
	for i, x := range ms {
		by[labels[i]] = append(by[labels[i]], x)
	}
	var spans []classSpan
	for name, xs := range by {
		spans = append(spans, classSpan{name: name, n: len(xs), median: median(xs)})
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].median != spans[j].median {
			return spans[i].median < spans[j].median
		}
		return spans[i].name < spans[j].name
	})
	cum := 0.0
	for i := range spans {
		spans[i].lo = cum
		cum += 100 * float64(spans[i].n) / float64(len(ms))
		spans[i].hi = cum
	}
	return spans
}

// boundaryMargin is the minimum relative margin a percentile must keep
// from its class's edges before the check prints a warning.
const boundaryMargin = 0.05

// checkClass returns a one-line verdict for percentile p.
func checkClass(metric string, p float64, ms []float64, labels []string, want string) string {
	spans := classSpans(ms, labels)
	for _, c := range spans {
		if p < c.lo || p > c.hi {
			continue
		}
		margin := math.Min(p-c.lo, c.hi-p) / (c.hi - c.lo)
		verdict := "ok"
		if margin < boundaryMargin && len(spans) > 1 {
			verdict = "WARNING: near a class boundary"
		}
		if want != "" && c.name != want {
			verdict = fmt.Sprintf("WARNING: expected inside class %q", want)
		}
		return fmt.Sprintf("class check %s (p%g): inside %q spanning p%.3f..p%.3f, margin %.1f%% of the class: %s",
			metric, p, c.name, c.lo, c.hi, 100*margin, verdict)
	}
	return fmt.Sprintf("class check %s (p%g): no class found", metric, p)
}
