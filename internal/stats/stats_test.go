package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Total() != 0 {
		t.Fatal("empty histogram total != 0")
	}
	h.Add(3)
	h.AddN(5, 4)
	h.AddN(7, 0) // no-op
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
	if h.Count(5) != 4 || h.Count(3) != 1 || h.Count(9) != 0 {
		t.Error("counts wrong")
	}
	vals := h.Values()
	if len(vals) != 2 || vals[0] != 3 || vals[1] != 5 {
		t.Errorf("Values = %v", vals)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	if got := h.Percentile(0.5); got != 50 {
		t.Errorf("P50 = %d, want 50", got)
	}
	if got := h.Percentile(0.99); got != 99 {
		t.Errorf("P99 = %d, want 99", got)
	}
	if got := h.Percentile(1.0); got != 100 {
		t.Errorf("P100 = %d, want 100", got)
	}
	if got := h.Percentile(0.0); got != 1 {
		t.Errorf("P0 = %d, want 1", got)
	}
	if got := h.Percentile(-1); got != 1 {
		t.Errorf("P(-1) = %d, want clamp to 1", got)
	}
	if got := h.Percentile(2); got != 100 {
		t.Errorf("P(2) = %d, want clamp to 100", got)
	}
}

func TestHistogramPercentileEmpty(t *testing.T) {
	if got := NewHistogram().Percentile(0.5); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
}

func TestHistogramCDFMonotonic(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Add(int(v))
		}
		cdf := h.CDF()
		prevX := -1
		prevP := 0.0
		for _, pt := range cdf {
			if pt.X <= prevX || pt.P < prevP || pt.P > 1.0000001 {
				return false
			}
			prevX, prevP = pt.X, pt.P
		}
		if len(vals) > 0 {
			last := cdf[len(cdf)-1]
			if math.Abs(last.P-1.0) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramCDFAt(t *testing.T) {
	h := NewHistogram()
	h.AddN(1, 1)
	h.AddN(10, 3)
	if got := h.CDFAt(1); got != 0.25 {
		t.Errorf("CDFAt(1) = %f, want 0.25", got)
	}
	if got := h.CDFAt(10); got != 1.0 {
		t.Errorf("CDFAt(10) = %f, want 1", got)
	}
	if got := h.CDFAt(0); got != 0 {
		t.Errorf("CDFAt(0) = %f, want 0", got)
	}
}

func TestWeightedMedian(t *testing.T) {
	h := NewHistogram()
	// 10 streams of length 2 (mass 20), 1 stream of length 100 (mass 100).
	// Half of the 120 mass is reached inside the length-100 stream.
	h.AddN(2, 10)
	h.AddN(100, 1)
	if got := h.WeightedMedian(); got != 100 {
		t.Errorf("WeightedMedian = %d, want 100", got)
	}
	// Unweighted median of the same data is 2.
	if got := h.Percentile(0.5); got != 2 {
		t.Errorf("Percentile(0.5) = %d, want 2", got)
	}
}

func TestWeightedCDF(t *testing.T) {
	h := NewHistogram()
	h.AddN(1, 50)
	h.AddN(50, 1)
	cdf := h.WeightedCDF()
	if len(cdf) != 2 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].X != 1 || math.Abs(cdf[0].P-0.5) > 1e-12 {
		t.Errorf("first point = %+v, want X=1 P=0.5", cdf[0])
	}
	if cdf[1].X != 50 || math.Abs(cdf[1].P-1.0) > 1e-12 {
		t.Errorf("second point = %+v", cdf[1])
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %f", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty Mean should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %f, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %f", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean with non-positive value should panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	fit := FitLinear(x, y)
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %f, want 1", fit.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	fit := FitLinear([]float64{5, 5, 5}, []float64{1, 2, 3})
	if fit.Slope != 0 || fit.Intercept != 2 {
		t.Errorf("vertical data fit = %+v", fit)
	}
	fit = FitLinear([]float64{1}, []float64{1})
	if fit != (LinearFit{}) {
		t.Errorf("single point fit = %+v", fit)
	}
	fit = FitLinear([]float64{1, 2, 3}, []float64{4, 4, 4})
	if fit.Slope != 0 || fit.Intercept != 4 || fit.R2 != 1 {
		t.Errorf("horizontal data fit = %+v", fit)
	}
}

func TestFitLinearPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	FitLinear([]float64{1}, []float64{1, 2})
}

func TestFitLinearNoisy(t *testing.T) {
	// y = 0.003x + 1 with alternating noise; slope recovered approximately.
	var x, y []float64
	for i := 0; i <= 100; i += 10 {
		x = append(x, float64(i))
		noise := 0.01
		if (i/10)%2 == 0 {
			noise = -0.01
		}
		y = append(y, 0.003*float64(i)+1+noise)
	}
	fit := FitLinear(x, y)
	if math.Abs(fit.Slope-0.003) > 0.001 {
		t.Errorf("Slope = %f, want ~0.003", fit.Slope)
	}
}

func TestCategories(t *testing.T) {
	c := NewCategories("Opportunity", "Head", "New", "Non-repetitive")
	c.Add("Opportunity", 94)
	c.Add("Head", 2)
	c.Add("New", 3)
	c.Add("Non-repetitive", 1)
	if got := c.Total(); got != 100 {
		t.Errorf("Total = %d", got)
	}
	if got := c.Fraction("Opportunity"); got != 0.94 {
		t.Errorf("Fraction = %f", got)
	}
	names := c.Names()
	want := []string{"Opportunity", "Head", "New", "Non-repetitive"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestCategoriesLateDeclaration(t *testing.T) {
	c := NewCategories("a")
	c.Add("b", 1)
	names := c.Names()
	if len(names) != 2 || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestCategoriesEmptyFraction(t *testing.T) {
	c := NewCategories("x")
	if got := c.Fraction("x"); got != 0 {
		t.Errorf("empty Fraction = %f", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.938); got != "93.8%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestPercentileAgainstSort(t *testing.T) {
	f := func(raw []uint8, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := float64(pRaw%101) / 100
		h := NewHistogram()
		vals := make([]int, len(raw))
		for i, v := range raw {
			vals[i] = int(v)
			h.Add(int(v))
		}
		sort.Ints(vals)
		idx := int(math.Ceil(p*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		return h.Percentile(p) == vals[idx]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
