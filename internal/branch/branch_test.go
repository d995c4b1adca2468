package branch

import (
	"reflect"
	"testing"

	"tifs/internal/isa"
	"tifs/internal/xrand"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.inc()
	}
	if c != 3 {
		t.Errorf("inc saturation = %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.dec()
	}
	if c != 0 {
		t.Errorf("dec saturation = %d", c)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := isa.Addr(0x1000)
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Error("bimodal failed to learn always-not-taken")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal failed to relearn always-taken")
	}
}

func TestBimodalPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBimodal(%d) should panic", n)
				}
			}()
			NewBimodal(n)
		}()
	}
}

func TestGShareLearnsAlternating(t *testing.T) {
	// A strictly alternating branch is mispredicted by bimodal but learned
	// perfectly by gshare once history warms up.
	g := NewGShare(4096)
	pc := isa.Addr(0x2000)
	taken := false
	// Warm up.
	for i := 0; i < 200; i++ {
		g.Update(pc, taken)
		taken = !taken
	}
	correct := 0
	for i := 0; i < 100; i++ {
		if g.Predict(pc) == taken {
			correct++
		}
		g.Update(pc, taken)
		taken = !taken
	}
	if correct < 95 {
		t.Errorf("gshare alternating accuracy = %d/100", correct)
	}
}

func TestHybridBeatsWorstComponent(t *testing.T) {
	// Mix of biased branches (bimodal-friendly) and history-dependent
	// branches (gshare-friendly); the hybrid should approach the better
	// component on each.
	h := NewHybrid(16 * 1024)
	rng := xrand.New(99)
	biased := isa.Addr(0x100)
	alt := isa.Addr(0x204)
	altTaken := false
	for i := 0; i < 2000; i++ {
		h.Update(biased, rng.Bool(0.95))
		h.Update(alt, altTaken)
		altTaken = !altTaken
	}
	// Measure.
	correctBiased, correctAlt, n := 0, 0, 500
	for i := 0; i < n; i++ {
		outcome := rng.Bool(0.95)
		if h.Predict(biased) == outcome {
			correctBiased++
		}
		h.Update(biased, outcome)

		if h.Predict(alt) == altTaken {
			correctAlt++
		}
		h.Update(alt, altTaken)
		altTaken = !altTaken
	}
	if float64(correctBiased)/float64(n) < 0.85 {
		t.Errorf("hybrid on biased branch: %d/%d", correctBiased, n)
	}
	if float64(correctAlt)/float64(n) < 0.90 {
		t.Errorf("hybrid on alternating branch: %d/%d", correctAlt, n)
	}
}

func TestHybridRandomBranchNearChance(t *testing.T) {
	h := NewHybrid(16 * 1024)
	rng := xrand.New(7)
	pc := isa.Addr(0x3000)
	correct, n := 0, 4000
	for i := 0; i < n; i++ {
		outcome := rng.Bool(0.5)
		if h.Predict(pc) == outcome {
			correct++
		}
		h.Update(pc, outcome)
	}
	acc := float64(correct) / float64(n)
	if acc > 0.6 {
		t.Errorf("hybrid predicted a coin flip with accuracy %f", acc)
	}
}

func TestPredictorAccuracyOnBiasedStream(t *testing.T) {
	// Overall sanity: on a stream of 90%-biased branches across many PCs,
	// the hybrid should exceed 80% accuracy after warmup.
	h := NewHybrid(16 * 1024)
	rng := xrand.New(1234)
	pcs := make([]isa.Addr, 64)
	bias := make([]float64, 64)
	for i := range pcs {
		pcs[i] = isa.Addr(0x1_0000 + i*4)
		if rng.Bool(0.5) {
			bias[i] = 0.9
		} else {
			bias[i] = 0.1
		}
	}
	for i := 0; i < 20000; i++ {
		k := rng.Intn(64)
		h.Update(pcs[k], rng.Bool(bias[k]))
	}
	correct, n := 0, 20000
	for i := 0; i < n; i++ {
		k := rng.Intn(64)
		outcome := rng.Bool(bias[k])
		if h.Predict(pcs[k]) == outcome {
			correct++
		}
		h.Update(pcs[k], outcome)
	}
	if acc := float64(correct) / float64(n); acc < 0.8 {
		t.Errorf("hybrid accuracy on biased stream = %f", acc)
	}
}

func BenchmarkHybridPredictUpdate(b *testing.B) {
	h := NewHybrid(16 * 1024)
	rng := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := isa.Addr(uint64(i%4096) * 4)
		h.Update(pc, h.Predict(pc) != rng.Bool(0.1))
	}
}

// refUpdate is Hybrid.Update as it was before PredictUpdate: each
// component predicts and trains through its own methods.
func refUpdate(h *Hybrid, pc isa.Addr, taken bool) {
	gp := h.gshare.Predict(pc)
	bp := h.bimodal.Predict(pc)
	ci := h.chooserIndex(pc)
	if gp != bp {
		if gp == taken {
			h.chooser[ci] = h.chooser[ci].inc()
		} else {
			h.chooser[ci] = h.chooser[ci].dec()
		}
	}
	h.gshare.Update(pc, taken)
	h.bimodal.Update(pc, taken)
}

// TestPredictUpdateMatchesPredictThenUpdate drives one predictor through
// PredictUpdate, one through Update and one through Predict then
// refUpdate over the same branches, on tables small enough to alias:
// the answers and every table and history must agree.
func TestPredictUpdateMatchesPredictThenUpdate(t *testing.T) {
	for _, entries := range []int{1, 16, 1024} {
		fused, update, ref := NewHybrid(entries), NewHybrid(entries), NewHybrid(entries)
		rng := xrand.NewFromString("predict-update")
		for i := 0; i < 50_000; i++ {
			pc := isa.Addr(4 * rng.Intn(3*entries+7))
			taken := rng.Intn(4) != 0
			if i%3 == 0 {
				taken = pc%12 == 0 // a biased site beside the noisy ones
			}
			want := ref.Predict(pc)
			refUpdate(ref, pc, taken)
			update.Update(pc, taken)
			if got := fused.PredictUpdate(pc, taken); got != want {
				t.Fatalf("entries %d branch %d: PredictUpdate = %v, Predict = %v", entries, i, got, want)
			}
		}
		if !reflect.DeepEqual(fused, ref) || !reflect.DeepEqual(update, ref) {
			t.Errorf("entries %d: tables differ after the same branches", entries)
		}
	}
}
