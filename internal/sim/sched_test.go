package sim

import (
	"testing"

	"tifs/internal/workload"
)

// refHeap is the indexed min-heap over (clock, core index) that the
// packed-key scan replaced, kept as the reference the scan must match.
// It reads each core's clock from a slice instead of from the core.
type refHeap struct {
	clocks []uint64
	idx    []int
	key    []uint64 // cached core clocks, parallel to idx
}

func (h *refHeap) init(clocks []uint64) {
	h.clocks = clocks
	n := len(clocks)
	h.idx = make([]int, n)
	h.key = make([]uint64, n)
	for i := range h.idx {
		h.idx[i] = i
		h.key[i] = clocks[i]
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *refHeap) len() int { return len(h.idx) }

func (h *refHeap) min() int { return h.idx[0] }

func (h *refHeap) less(a, b int) bool {
	if h.key[a] != h.key[b] {
		return h.key[a] < h.key[b]
	}
	return h.idx[a] < h.idx[b]
}

func (h *refHeap) fix() {
	h.key[0] = h.clocks[h.idx[0]]
	h.down(0)
}

func (h *refHeap) pop() {
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.key[0] = h.key[last]
	h.idx = h.idx[:last]
	h.key = h.key[:last]
	if len(h.idx) > 0 {
		h.down(0)
	}
}

func (h *refHeap) down(i int) {
	n := len(h.idx)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.idx[i], h.idx[m] = h.idx[m], h.idx[i]
		h.key[i], h.key[m] = h.key[m], h.key[i]
		i = m
	}
}

// FuzzSchedulerMatchesHeap drives the packed-key scan and the reference
// heap through one schedule: 1-8 cores from fuzzed starting clocks,
// each pick stepping the chosen core's clock by 0-15 cycles (0 makes
// ties) or exhausting it. Both must pick the same core every time and
// run out together.
func FuzzSchedulerMatchesHeap(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0x10, 0x00, 0x20, 0x01, 0x00, 0x00, 0x30})
	f.Add([]byte{7, 5, 5, 5, 5, 5, 5, 5, 5, 0x00, 0x10, 0x00, 0x00, 0x20})
	f.Add([]byte{0, 9, 0x10, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		data = data[1:]
		clocks := make([]uint64, n)
		for i := range clocks {
			if len(data) > 0 {
				clocks[i] = uint64(data[0] % 4)
				data = data[1:]
			}
		}
		keys := make([]uint64, n)
		for i, c := range clocks {
			keys[i] = coreKey(c, i)
		}
		var h refHeap
		h.init(clocks)
		for step := 0; h.len() > 0; step++ {
			key := minKey(keys)
			if key == exhausted {
				t.Fatalf("step %d: scan found every core exhausted, heap still holds %d", step, h.len())
			}
			next := int(key & 0xff)
			if want := h.min(); next != want {
				t.Fatalf("step %d: scan picked core %d, heap core %d (clocks %v)", step, next, want, clocks)
			}
			op := byte(0x0f) // past the fuzzed ops, exhaust the cores in turn
			if step < len(data) {
				op = data[step]
			}
			if op&0x0f == 0x0f {
				keys[next] = exhausted
				h.pop()
				continue
			}
			clocks[next] += uint64(op >> 4)
			keys[next] = coreKey(clocks[next], next)
			h.fix()
		}
		if key := minKey(keys); key != exhausted {
			t.Fatalf("heap empty but the scan still picks core %d", key&0xff)
		}
	})
}

// TestCoreKeyRejectsOverflow: a clock that would reach the core bits or
// the exhausted key panics instead of scheduling out of order.
func TestCoreKeyRejectsOverflow(t *testing.T) {
	if k := coreKey(1<<56-2, MaxCores-1); k >= exhausted {
		t.Errorf("largest accepted key %#x is not below the exhausted key", k)
	}
	defer func() {
		if recover() == nil {
			t.Error("coreKey accepted a clock of 2^56-1")
		}
	}()
	coreKey(1<<56-1, 0)
}

// TestTooManyCoresPanics: Run refuses a core count the scheduler key
// cannot hold before it builds anything for it.
func TestTooManyCoresPanics(t *testing.T) {
	spec, _ := workload.ByName("Web-Zeus")
	defer func() {
		if recover() == nil {
			t.Errorf("Run accepted %d cores", MaxCores+1)
		}
	}()
	NewRunner().Run(spec, workload.ScaleSmall, Config{Cores: MaxCores + 1, EventsPerCore: 1000})
}
