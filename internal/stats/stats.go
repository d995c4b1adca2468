// Package stats provides the small statistical toolkit the experiments
// need: integer histograms with CDF extraction, percentiles, linear
// regression (for the Fig. 1 trend lines), category accounting (for the
// Fig. 3 and Fig. 12 stacked bars), and plain-text table rendering used by
// every experiment to print paper-style rows.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts occurrences of non-negative integer values. It is used
// for stream lengths (Fig. 5) and branch-lookahead counts (Fig. 10), whose
// domains are small integers with long tails.
type Histogram struct {
	counts map[int]uint64
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]uint64)}
}

// Add records value once.
func (h *Histogram) Add(value int) { h.AddN(value, 1) }

// AddN records value n times.
func (h *Histogram) AddN(value int, n uint64) {
	if n == 0 {
		return
	}
	h.counts[value] += n
	h.total += n
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of observations equal to value.
func (h *Histogram) Count(value int) uint64 { return h.counts[value] }

// Values returns the distinct observed values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// Percentile returns the smallest observed value v such that at least
// p (0..1) of the observations are <= v. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, v := range h.Values() {
		cum += h.counts[v]
		if cum >= target {
			return v
		}
	}
	vs := h.Values()
	return vs[len(vs)-1]
}

// CDFPoint is one point of a cumulative distribution: fraction P of
// observations have value <= X.
type CDFPoint struct {
	X int
	P float64
}

// CDF returns the full cumulative distribution in ascending X order.
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	values := h.Values()
	out := make([]CDFPoint, 0, len(values))
	var cum uint64
	for _, v := range values {
		cum += h.counts[v]
		out = append(out, CDFPoint{X: v, P: float64(cum) / float64(h.total)})
	}
	return out
}

// CDFAt returns the fraction of observations with value <= x.
func (h *Histogram) CDFAt(x int) float64 {
	if h.total == 0 {
		return 0
	}
	var cum uint64
	for v, c := range h.counts {
		if v <= x {
			cum += c
		}
	}
	return float64(cum) / float64(h.total)
}

// WeightedMedian returns the value at which the *value-weighted* cumulative
// mass crosses one half. The paper's Fig. 5 plots "% Opportunity" against
// stream length — each stream of length L contributes L misses of
// opportunity — so medians quoted there (e.g. OLTP-Oracle median 80) are
// weighted by stream length, not by stream count.
func (h *Histogram) WeightedMedian() int {
	if h.total == 0 {
		return 0
	}
	var totalMass float64
	for v, c := range h.counts {
		totalMass += float64(v) * float64(c)
	}
	var cum float64
	for _, v := range h.Values() {
		cum += float64(v) * float64(h.counts[v])
		if cum >= totalMass/2 {
			return v
		}
	}
	vs := h.Values()
	return vs[len(vs)-1]
}

// WeightedCDF returns the cumulative distribution weighted by value mass
// (see WeightedMedian); used to reproduce Fig. 5's y-axis.
func (h *Histogram) WeightedCDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var totalMass float64
	for v, c := range h.counts {
		totalMass += float64(v) * float64(c)
	}
	if totalMass == 0 {
		return nil
	}
	values := h.Values()
	out := make([]CDFPoint, 0, len(values))
	var cum float64
	for _, v := range values {
		cum += float64(v) * float64(h.counts[v])
		out = append(out, CDFPoint{X: v, P: cum / totalMass})
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs; all values must be positive.
// Speedup aggregation across workloads conventionally uses the geometric
// mean.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeoMean requires positive values")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// LinearFit is the least-squares line y = Slope*x + Intercept with
// coefficient of determination R2. Fig. 1 plots linear regressions of
// speedup against prefetch coverage.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear computes the least-squares fit of y on x. It panics if the
// slices differ in length and returns a zero fit for fewer than two points.
func FitLinear(x, y []float64) LinearFit {
	if len(x) != len(y) {
		panic("stats: FitLinear length mismatch")
	}
	if len(x) < 2 {
		return LinearFit{}
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Intercept: my}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit
}

// Categories accumulates named counts and reports fractions in a fixed
// declaration order; it backs the stacked-bar figures (Fig. 3's
// Opportunity/Head/New/Non-repetitive and Fig. 12's Coverage/Miss/Discard).
type Categories struct {
	order  []string
	counts map[string]uint64
}

// NewCategories declares the category names in presentation order.
func NewCategories(names ...string) *Categories {
	c := &Categories{counts: make(map[string]uint64, len(names))}
	c.order = append(c.order, names...)
	for _, n := range names {
		c.counts[n] = 0
	}
	return c
}

// Add increments the named category by n, declaring it (appended to the
// order) if it was not pre-declared.
func (c *Categories) Add(name string, n uint64) {
	if _, ok := c.counts[name]; !ok {
		c.order = append(c.order, name)
	}
	c.counts[name] += n
}

// Count returns the accumulated count for name.
func (c *Categories) Count(name string) uint64 { return c.counts[name] }

// Total returns the sum over all categories.
func (c *Categories) Total() uint64 {
	var t uint64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Names returns the category names in declaration order.
func (c *Categories) Names() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Fraction returns the share of the total held by name (0 if total is 0).
func (c *Categories) Fraction(name string) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.counts[name]) / float64(t)
}

// Pct formats a 0..1 fraction as a percentage string like "93.8%".
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
