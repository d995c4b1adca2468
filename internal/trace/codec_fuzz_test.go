package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// readerMisses drains a MissReader over data, the way ReadAllMisses
// decoded before it worked on the bytes in place.
func readerMisses(data []byte) ([]MissRecord, error) {
	mr, err := NewMissReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out []MissRecord
	for {
		m, ok := mr.Next()
		if !ok {
			return out, mr.Err()
		}
		out = append(out, m)
	}
}

// missStream encodes recs through a MissWriter.
func missStream(tb testing.TB, recs []MissRecord) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewMissWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range recs {
		if err := w.Write(m); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadAllMissesMatchesReader checks that ReadAllMisses returns the
// records and the error a MissReader gives on arbitrary bytes, both as
// given and behind a valid miss-stream header.
func FuzzReadAllMissesMatchesReader(f *testing.F) {
	valid := missStream(f, []MissRecord{
		{Block: 0x4000, Seq: 3, Branches: 2},
		{Block: 0x4001, Seq: 3, Branches: 0, Sequential: true},
		{Block: 0x10, Seq: 1 << 40, Branches: 1 << 20},
		{Block: 1 << 50, Seq: 1<<40 + 7, Branches: 0},
	})
	header := missStream(f, nil)
	f.Add(valid)
	f.Add(header)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1])        // no Sequential byte
	f.Add(valid[:len(valid)-3])        // cut inside a varint
	f.Add(append(valid[:4:4], 9, 2))   // unsupported version
	f.Add(append(valid[:5:5], 1, 0x0)) // event-stream kind
	f.Add(append(slices.Clone(header), 2, 2, 2, 0x85))
	f.Add(append(slices.Clone(header), bytes.Repeat([]byte{0x80}, 10)...))
	f.Add(append(slices.Clone(header), bytes.Repeat([]byte{0xff}, 11)...))
	f.Add(append(append(slices.Clone(header), bytes.Repeat([]byte{0xff}, 9)...), 2, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, append(slices.Clone(header), data...)} {
			got, err := ReadAllMisses(in)
			want, wantErr := readerMisses(in)
			if !slices.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("ReadAllMisses(%x) = %v, %v; MissReader gives %v, %v", in, got, err, want, wantErr)
			}
		}
	})
}
