package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d differs: %d vs %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestNewFromStringDeterministic(t *testing.T) {
	a := NewFromString("oltp-db2/core0")
	b := NewFromString("oltp-db2/core0")
	c := NewFromString("oltp-db2/core1")
	if a.Uint64() != b.Uint64() {
		t.Error("same name should give same stream")
	}
	aa := NewFromString("oltp-db2/core0")
	if aa.Uint64() == c.Uint64() {
		t.Error("different names should give different streams")
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	f1 := parent.Fork("a")
	f2 := parent.Fork("a") // second fork consumes another parent draw
	if f1.Uint64() == f2.Uint64() {
		t.Error("sequential forks with same label should differ")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d count %d deviates >5%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %f out of [0,1)", f)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(9)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %f", got)
	}
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
}

func TestRangeInclusive(t *testing.T) {
	r := New(13)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.Range(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("Range(3,5) = %d", v)
		}
		if v == 3 {
			seenLo = true
		}
		if v == 5 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Error("Range(3,5) never produced an endpoint")
	}
	if got := r.Range(7, 7); got != 7 {
		t.Errorf("Range(7,7) = %d", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfTableSkew(t *testing.T) {
	r := New(23)
	z := NewZipfTable(100, 1.0)
	const draws = 100000
	counts := make([]int, 100)
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	// Rank 0 must dominate rank 10 by roughly the harmonic ratio (11x).
	if counts[0] < counts[10]*5 {
		t.Errorf("Zipf skew too flat: rank0=%d rank10=%d", counts[0], counts[10])
	}
	// Every draw in range was counted.
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != draws {
		t.Errorf("lost samples: %d/%d", total, draws)
	}
}

func TestZipfTableUniformWhenSkewZero(t *testing.T) {
	r := New(29)
	z := NewZipfTable(10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	want := float64(draws) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("uniform zipf bucket %d = %d, want ~%f", i, c, want)
		}
	}
}

func TestZipfTableSingleton(t *testing.T) {
	z := NewZipfTable(1, 1.2)
	r := New(1)
	for i := 0; i < 100; i++ {
		if z.Sample(r) != 0 {
			t.Fatal("singleton table must always return 0")
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
