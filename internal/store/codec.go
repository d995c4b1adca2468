package store

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tifs/internal/core"
	"tifs/internal/cpu"
	"tifs/internal/sim"
	"tifs/internal/trace"
	"tifs/internal/uncore"
)

// Result payloads are a fixed field walk in uvarint encoding, the same
// convention internal/trace uses for its streams. The walk is explicit
// (no reflection) so the layout is stable; TestResultRoundTrip compares
// a real simulation result field-for-field and fails if a new Result
// field is added without extending this codec.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendCPUStats(dst []byte, s cpu.Stats) []byte {
	for _, v := range []uint64{
		s.Cycles, s.Instrs, s.Events,
		s.BlockFetches, s.L1Hits, s.NextLineHits, s.PrefetchHits, s.Misses,
		s.NextLineLate,
		s.FetchStallCycles, s.StallNextLine, s.StallPrefetch, s.StallMiss,
		s.BranchMispredicts, s.Branches, s.Serializations,
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// encodeResult serializes r completely and losslessly (every field is an
// unsigned counter or a string; there is nothing to round).
func encodeResult(r sim.Result) []byte {
	dst := make([]byte, 0, 256)
	dst = appendString(dst, r.Workload)
	dst = appendString(dst, r.Mechanism)
	dst = binary.AppendUvarint(dst, r.Cycles)
	dst = binary.AppendUvarint(dst, r.TotalInstrs)
	dst = binary.AppendUvarint(dst, r.TotalEvents)
	dst = binary.AppendUvarint(dst, uint64(len(r.PerCore)))
	for _, s := range r.PerCore {
		dst = appendCPUStats(dst, s)
	}
	for _, v := range []uint64{
		r.Prefetch.Issued, r.Prefetch.HitsTimely, r.Prefetch.HitsLate,
		r.Prefetch.Discards, r.Prefetch.MetaReads, r.Prefetch.MetaWrites,
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	if r.TIFS == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		for _, v := range []uint64{
			r.TIFS.StreamsAllocated, r.TIFS.IndexLookups, r.TIFS.IndexMisses,
			r.TIFS.IndexDrops, r.TIFS.Pauses, r.TIFS.Resumes,
			r.TIFS.LoggedMisses, r.TIFS.LoggedHits,
		} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	kinds := uncore.NumTrafficKinds()
	dst = binary.AppendUvarint(dst, uint64(kinds))
	for k := 0; k < kinds; k++ {
		dst = binary.AppendUvarint(dst, r.Traffic.Count(uncore.TrafficKind(k)))
	}
	dst = binary.AppendUvarint(dst, r.Uncore.L2Hits)
	dst = binary.AppendUvarint(dst, r.Uncore.L2Misses)
	dst = binary.AppendUvarint(dst, r.Uncore.BankWaitCycles)
	return dst
}

// cursor reads uvarints off a payload.
type cursor struct {
	b   []byte
	pos int
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("store: truncated payload at %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	// Bound before converting: a huge varint must degrade to a decode
	// error (a cache miss), not wrap negative and panic slice bounds.
	if n > uint64(len(c.b)) || c.pos+int(n) > len(c.b) {
		return "", fmt.Errorf("store: truncated string at %d", c.pos)
	}
	s := string(c.b[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s, nil
}

func (c *cursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, fmt.Errorf("store: truncated payload at %d", c.pos)
	}
	b := c.b[c.pos]
	c.pos++
	return b, nil
}

func (c *cursor) cpuStats() (cpu.Stats, error) {
	var s cpu.Stats
	for _, p := range []*uint64{
		&s.Cycles, &s.Instrs, &s.Events,
		&s.BlockFetches, &s.L1Hits, &s.NextLineHits, &s.PrefetchHits, &s.Misses,
		&s.NextLineLate,
		&s.FetchStallCycles, &s.StallNextLine, &s.StallPrefetch, &s.StallMiss,
		&s.BranchMispredicts, &s.Branches, &s.Serializations,
	} {
		v, err := c.uvarint()
		if err != nil {
			return s, err
		}
		*p = v
	}
	return s, nil
}

// decodeResult inverts encodeResult. Errors surface as cache misses.
func decodeResult(payload []byte) (sim.Result, error) {
	c := &cursor{b: payload}
	var r sim.Result
	var err error
	if r.Workload, err = c.str(); err != nil {
		return r, err
	}
	if r.Mechanism, err = c.str(); err != nil {
		return r, err
	}
	for _, p := range []*uint64{&r.Cycles, &r.TotalInstrs, &r.TotalEvents} {
		if *p, err = c.uvarint(); err != nil {
			return r, err
		}
	}
	ncores, err := c.uvarint()
	if err != nil {
		return r, err
	}
	if ncores > 1<<16 {
		return r, fmt.Errorf("store: implausible core count %d", ncores)
	}
	r.PerCore = make([]cpu.Stats, ncores)
	for i := range r.PerCore {
		if r.PerCore[i], err = c.cpuStats(); err != nil {
			return r, err
		}
	}
	for _, p := range []*uint64{
		&r.Prefetch.Issued, &r.Prefetch.HitsTimely, &r.Prefetch.HitsLate,
		&r.Prefetch.Discards, &r.Prefetch.MetaReads, &r.Prefetch.MetaWrites,
	} {
		if *p, err = c.uvarint(); err != nil {
			return r, err
		}
	}
	hasTIFS, err := c.byte()
	if err != nil {
		return r, err
	}
	if hasTIFS != 0 {
		ts := &core.TIFSStats{}
		for _, p := range []*uint64{
			&ts.StreamsAllocated, &ts.IndexLookups, &ts.IndexMisses,
			&ts.IndexDrops, &ts.Pauses, &ts.Resumes,
			&ts.LoggedMisses, &ts.LoggedHits,
		} {
			if *p, err = c.uvarint(); err != nil {
				return r, err
			}
		}
		r.TIFS = ts
	}
	kinds, err := c.uvarint()
	if err != nil {
		return r, err
	}
	if kinds != uint64(uncore.NumTrafficKinds()) {
		// A ledger shape change without a version bump: refuse rather
		// than misattribute traffic.
		return r, fmt.Errorf("store: traffic kinds %d, want %d", kinds, uncore.NumTrafficKinds())
	}
	for k := uint64(0); k < kinds; k++ {
		v, err := c.uvarint()
		if err != nil {
			return r, err
		}
		r.Traffic.SetCount(uncore.TrafficKind(k), v)
	}
	for _, p := range []*uint64{&r.Uncore.L2Hits, &r.Uncore.L2Misses, &r.Uncore.BankWaitCycles} {
		if *p, err = c.uvarint(); err != nil {
			return r, err
		}
	}
	if c.pos != len(payload) {
		return r, fmt.Errorf("store: %d trailing bytes", len(payload)-c.pos)
	}
	return r, nil
}

// encodeMissTraces frames each core's records as one internal/trace miss
// stream (delta/varint, the codec the traces were born in).
func encodeMissTraces(recs [][]trace.MissRecord) ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(recs)))
	var buf bytes.Buffer
	for _, core := range recs {
		buf.Reset()
		mw, err := trace.NewMissWriter(&buf)
		if err != nil {
			return nil, err
		}
		for _, m := range core {
			if err := mw.Write(m); err != nil {
				return nil, err
			}
		}
		if err := mw.Flush(); err != nil {
			return nil, err
		}
		dst = binary.AppendUvarint(dst, uint64(buf.Len()))
		dst = append(dst, buf.Bytes()...)
	}
	return dst, nil
}

// decodeMissTraces inverts encodeMissTraces.
func decodeMissTraces(payload []byte) ([][]trace.MissRecord, error) {
	c := &cursor{b: payload}
	ncores, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if ncores > 1<<16 {
		return nil, fmt.Errorf("store: implausible core count %d", ncores)
	}
	out := make([][]trace.MissRecord, ncores)
	for i := range out {
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(payload)) || c.pos+int(n) > len(payload) {
			return nil, fmt.Errorf("store: truncated trace at %d", c.pos)
		}
		recs, err := trace.ReadAllMisses(payload[c.pos : c.pos+int(n)])
		if err != nil {
			return nil, err
		}
		out[i] = recs
		c.pos += int(n)
	}
	if c.pos != len(payload) {
		return nil, fmt.Errorf("store: %d trailing bytes", len(payload)-c.pos)
	}
	return out, nil
}
