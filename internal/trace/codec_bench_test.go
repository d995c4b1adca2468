package trace

import (
	"bytes"
	"testing"

	"tifs/internal/workload"
)

// BenchmarkTraceCodec measures encode+decode round trips of the miss
// codec over real workload-shaped data. The persistent result store
// frames its miss-trace payloads with this codec, so regressions here
// show up before they surface as store slowdowns.
func BenchmarkTraceCodec(b *testing.B) {
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		b.Fatal("workload missing")
	}
	gen := workload.Build(spec, workload.ScaleSmall, 1)

	b.Run("misses", func(b *testing.B) {
		gen.Reset()
		misses := ExtractMisses(gen.Sources()[0], 60_000, ExtractorConfig{})
		if len(misses) == 0 {
			b.Fatal("no misses extracted")
		}
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			mw, err := NewMissWriter(&buf)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range misses {
				if err := mw.Write(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := mw.Flush(); err != nil {
				b.Fatal(err)
			}
			mr, err := NewMissReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			decoded := 0
			for {
				if _, ok := mr.Next(); !ok {
					break
				}
				decoded++
			}
			if mr.Err() != nil {
				b.Fatal(mr.Err())
			}
			if decoded != len(misses) {
				b.Fatalf("decoded %d of %d misses", decoded, len(misses))
			}
		}
		b.ReportMetric(float64(uint64(b.N)*uint64(len(misses)))/b.Elapsed().Seconds(), "misses/s")
	})
}
