package prefetch

import (
	"reflect"
	"testing"

	"tifs/internal/isa"
)

// refOnWindow is FDIP.OnWindow as it was before the trained flag: every
// step predicts the whole explored prefix again.
func refOnWindow(f *FDIP, window []isa.BlockEvent, now uint64) {
	if f.explored > 0 {
		f.explored--
	}
	if f.blocked > 0 {
		f.blocked--
		return
	}
	instrs, branches, advanced := 0, 0, 0
	for i := 1; i < len(window); i++ {
		ok, cond := f.predictable(window[i-1])
		if !ok {
			if i > f.explored {
				f.wrongPath(window[i-1], now)
			}
			f.blocked = i
			return
		}
		if cond {
			branches++
			if branches > f.cfg.MaxBranches {
				return
			}
		}
		instrs += window[i].Instrs
		if instrs > f.cfg.MaxInstrs {
			return
		}
		if i < f.explored {
			continue
		}
		if advanced >= f.cfg.ExploreRate {
			return
		}
		for b := window[i].PC.Block(); b <= window[i].LastPC().Block(); b++ {
			f.prefetchBlock(b, now)
		}
		f.explored = i + 1
		advanced++
	}
}

// prefetchLog is a fixed-latency Memory that records every prefetch.
type prefetchLog struct{ calls [][2]uint64 }

func (m *prefetchLog) Prefetch(core int, b isa.Block, now uint64) uint64 {
	m.calls = append(m.calls, [2]uint64{uint64(b), now})
	return now + 20
}
func (m *prefetchLog) MetaRead(int, uint64, uint64) uint64 { return 0 }
func (m *prefetchLog) MetaWrite(int, uint64, uint64)       {}

// hashL1 reports a fixed, pseudo-random quarter of all blocks resident.
type hashL1 struct{}

func (hashL1) ContainsBlock(b isa.Block) bool { return (uint64(b)*0x9e3779b97f4a7c15)>>62 == 0 }

// fuzzEvents decodes three bytes per event: the kind, the site (one of
// eight, so predictor entries and call targets repeat), the direction or
// target, and the instruction count.
func fuzzEvents(data []byte) []isa.BlockEvent {
	kinds := []isa.CTKind{isa.CTFallthrough, isa.CTBranch, isa.CTBranch, isa.CTJump, isa.CTCall, isa.CTCall, isa.CTReturn, isa.CTTrap}
	var evs []isa.BlockEvent
	for ; len(data) >= 3; data = data[3:] {
		kind := kinds[data[0]%8]
		site := isa.Addr(0x10000 + 0x100*int(data[0]>>3%8))
		ev := isa.BlockEvent{
			PC:     site,
			Instrs: 1 + int(data[2]%24),
			Kind:   kind,
			Taken:  data[1]&1 != 0,
			Target: isa.Addr(0x40000 + 0x400*int(data[1]>>1%4)),
		}
		evs = append(evs, ev)
	}
	return evs
}

// FuzzFDIPMatchesReference runs OnWindow and refOnWindow on two FDIP
// engines over one fuzzed event stream, as the core drives them: the
// window advances one event per step, the fetch probes the first
// event's block, and the event then retires through OnEvent, training
// the predictor on branches and the target table on calls. Every step
// must issue the same prefetches and leave the same counters and
// exploration state.
func FuzzFDIPMatchesReference(f *testing.F) {
	f.Add([]byte{8, 2, 1, 9, 0, 16, 4, 1, 3, 12, 5, 7, 4, 3, 3, 9, 0, 16, 4, 5, 3, 1, 1, 16, 12, 2, 9, 4, 1, 3, 9, 0, 16, 4, 3, 3, 20, 2, 2})
	f.Add([]byte{3, 100, 4, 7, 1, 9, 2, 4, 1, 3, 12, 1, 8, 4, 3, 15, 0, 0, 4, 4, 3, 5, 0, 0, 4, 1, 3, 12, 1, 8, 4, 7, 3, 15, 0, 0, 4, 4, 3})
	f.Add([]byte("2291111000000110000000107000110111000")) // retrains the prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		width := 1 + int(data[0]%48)
		// Predictor tables of 1 to 16 entries alias every site, so
		// each retiring branch moves the predictions of the others.
		cfg := FDIPConfig{
			MaxInstrs:        8 + 8*int(data[1]%16),
			MaxBranches:      1 + int(data[2]%8),
			PredictorEntries: 1 << (data[2] >> 3 % 5),
			ExploreRate:      1 + int(data[3]%6),
			BufferBlocks:     1 + int(data[3]>>3%32),
		}
		evs := fuzzEvents(data[4:])
		gotMem, wantMem := &prefetchLog{}, &prefetchLog{}
		got := NewFDIP(cfg, 0, gotMem, hashL1{})
		want := NewFDIP(cfg, 0, wantMem, hashL1{})
		for step := range evs {
			now := uint64(10 * step)
			w := evs[step:min(step+width, len(evs))]
			got.OnWindow(w, now)
			refOnWindow(want, w, now)
			b := w[0].PC.Block()
			gr, gok := got.Probe(b, now)
			wr, wok := want.Probe(b, now)
			if gr != wr || gok != wok {
				t.Fatalf("step %d: Probe = %d,%v, reference %d,%v", step, gr, gok, wr, wok)
			}
			got.OnEvent(w[0], now)
			want.OnEvent(w[0], now)
			if !reflect.DeepEqual(gotMem.calls, wantMem.calls) {
				t.Fatalf("step %d: prefetches differ\ngot  %v\nwant %v", step, gotMem.calls, wantMem.calls)
			}
			if got.Stats() != want.Stats() || got.explored != want.explored || got.blocked != want.blocked {
				t.Fatalf("step %d: state differs: stats %+v explored %d blocked %d; reference %+v, %d, %d",
					step, got.Stats(), got.explored, got.blocked, want.Stats(), want.explored, want.blocked)
			}
		}
	})
}
