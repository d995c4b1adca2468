package store

import (
	"reflect"
	"testing"

	"tifs/internal/sequitur"
)

// testSnapshots builds a realistic per-core snapshot set by running
// SEQUITUR over synthetic recurring sequences.
func testSnapshots(t *testing.T) []*sequitur.Snapshot {
	t.Helper()
	out := make([]*sequitur.Snapshot, 4)
	for c := range out {
		var seq []uint64
		for rep := 0; rep < 6; rep++ {
			for i := 0; i < 8; i++ {
				seq = append(seq, uint64(c*1000+i))
			}
			seq = append(seq, uint64(rep*31+c)) // noise between repeats
		}
		out[c] = sequitur.Build(seq)
		if err := out[c].CheckInvariants(); err != nil {
			t.Fatalf("test grammar invalid: %v", err)
		}
	}
	return out
}

// TestGrammarCodecRoundTrip: encode/decode is lossless for real
// grammars, including through a store reopen.
func TestGrammarCodecRoundTrip(t *testing.T) {
	snaps := testSnapshots(t)
	payload, err := encodeGrammars(snaps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeGrammars(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps, got) {
		t.Errorf("grammar codec round trip diverged:\nin  %+v\nout %+v", snaps, got)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.PutGrammars("k", snaps)
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got2, ok := st2.GetGrammars("k")
	if !ok {
		t.Fatal("grammars missing after reopen")
	}
	if !reflect.DeepEqual(snaps, got2) {
		t.Error("grammars changed across store reopen")
	}
	if _, ok := st2.GetGrammars("other"); ok {
		t.Error("grammars found under a key never stored")
	}
}

// TestGrammarDecodeRejectsCorruption: every truncation of a valid
// payload, plus targeted structural damage (a rule reference past the
// rule count, a bad symbol tag, trailing bytes), must decode to an
// error — never a panic, never a mangled snapshot.
func TestGrammarDecodeRejectsCorruption(t *testing.T) {
	snaps := testSnapshots(t)
	payload, err := encodeGrammars(snaps)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(payload); n++ {
		if _, err := decodeGrammars(payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	if _, err := decodeGrammars(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Error("trailing byte decoded cleanly")
	}
	// Single-byte flips: must either error or yield a structurally valid
	// snapshot set (flips that only change counter values are
	// undetectable by structure; the store's CRC layer catches those).
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0x41
		snaps, err := decodeGrammars(mut)
		if err != nil {
			continue
		}
		for _, s := range snaps {
			for _, r := range s.Rules {
				for _, sym := range r.Syms {
					if sym.IsRule && (sym.Rule < 0 || sym.Rule >= len(s.Rules)) {
						t.Fatalf("flip at %d produced out-of-range rule reference", i)
					}
				}
			}
		}
	}
}

// TestGrammarStoreCorruptPayloadIsAMiss: a blob-level write of garbage
// under a grammar address reads back as a miss, not an error.
func TestGrammarStoreCorruptPayloadIsAMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.PutBlob(Address(KindGrammars, "bad"), []byte{0xff, 0x02, 0x99})
	if _, ok := st.GetGrammars("bad"); ok {
		t.Error("corrupt grammar payload served as a hit")
	}
}
