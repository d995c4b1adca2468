package store

import (
	"encoding/binary"
	"fmt"

	"tifs/internal/sequitur"
)

// Grammar snapshot records: the per-core SEQUITUR grammars the analysis
// experiments derive from a workload's miss traces. Deriving a grammar
// is the last repeated analysis cost the result cache does not cover —
// the miss traces persist, but every process used to re-run SEQUITUR
// over them — so snapshots are content-addressed exactly like the
// traces they summarize: keyed by the miss-trace extraction key plus
// the analysis variant, under their own kind byte.
//
// The same defensive contract applies: any decode anomaly (truncation,
// implausible counts, a rule reference out of range) is a cache miss,
// and the caller re-derives the grammar from the traces. Corruption
// costs time, never numbers.

// kindGrammars is the record kind of per-core grammar snapshot sets.
const kindGrammars byte = 3

// KindGrammars is kindGrammars for blob-level callers.
const KindGrammars = kindGrammars

// GetGrammars returns the cached per-core grammar snapshots for an
// analysis key, if present and decodable.
func (s *Store) GetGrammars(key string) ([]*sequitur.Snapshot, bool) {
	payload, ok := s.get(kindGrammars, key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	snaps, err := decodeGrammars(payload)
	if err != nil {
		s.misses.Add(1)
		s.drop(kindGrammars, key)
		return nil, false
	}
	s.hits.Add(1)
	return snaps, true
}

// PutGrammars caches per-core grammar snapshots under an analysis key.
func (s *Store) PutGrammars(key string, snaps []*sequitur.Snapshot) {
	payload, err := encodeGrammars(snaps)
	if err != nil {
		return
	}
	s.put(kindGrammars, key, payload)
}

// EncodeGrammars serializes per-core grammar snapshots in the store's
// payload codec.
func EncodeGrammars(snaps []*sequitur.Snapshot) ([]byte, error) { return encodeGrammars(snaps) }

// DecodeGrammars inverts EncodeGrammars.
func DecodeGrammars(payload []byte) ([]*sequitur.Snapshot, error) { return decodeGrammars(payload) }

// encodeGrammars is the usual explicit uvarint field walk: core count,
// then per snapshot the rule count and per rule (symbol count, uses,
// expansion length, symbols). A symbol is a tag varint (1 = rule
// reference) followed by the rule index or terminal value.
func encodeGrammars(snaps []*sequitur.Snapshot) ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(snaps)))
	for _, snap := range snaps {
		if snap == nil {
			return nil, fmt.Errorf("store: nil grammar snapshot")
		}
		dst = binary.AppendUvarint(dst, uint64(len(snap.Rules)))
		for _, r := range snap.Rules {
			dst = binary.AppendUvarint(dst, uint64(len(r.Syms)))
			dst = binary.AppendUvarint(dst, uint64(r.Uses))
			dst = binary.AppendUvarint(dst, r.ExpLen)
			for _, sym := range r.Syms {
				if sym.IsRule {
					dst = append(dst, 1)
					dst = binary.AppendUvarint(dst, uint64(sym.Rule))
				} else {
					dst = append(dst, 0)
					dst = binary.AppendUvarint(dst, sym.Value)
				}
			}
		}
	}
	return dst, nil
}

// decodeGrammars inverts encodeGrammars, validating every rule
// reference against the snapshot's own rule count so a corrupt payload
// can never yield a snapshot that panics its consumers.
func decodeGrammars(payload []byte) ([]*sequitur.Snapshot, error) {
	c := &cursor{b: payload}
	ncores, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if ncores > 1<<16 {
		return nil, fmt.Errorf("store: implausible core count %d", ncores)
	}
	out := make([]*sequitur.Snapshot, ncores)
	for i := range out {
		nrules, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		// Every rule takes at least three payload bytes; anything claiming
		// more rules than bytes is corrupt.
		if nrules > uint64(len(payload)) {
			return nil, fmt.Errorf("store: implausible rule count %d", nrules)
		}
		snap := &sequitur.Snapshot{Rules: make([]sequitur.RuleView, nrules)}
		for id := range snap.Rules {
			nsyms, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if nsyms > uint64(len(payload)) {
				return nil, fmt.Errorf("store: implausible symbol count %d", nsyms)
			}
			uses, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			explen, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			rv := sequitur.RuleView{ID: id, Uses: int(uses), ExpLen: explen,
				Syms: make([]sequitur.Sym, nsyms)}
			for s := range rv.Syms {
				tag, err := c.byte()
				if err != nil {
					return nil, err
				}
				v, err := c.uvarint()
				if err != nil {
					return nil, err
				}
				switch tag {
				case 0:
					rv.Syms[s] = sequitur.Sym{Value: v}
				case 1:
					if v >= nrules {
						return nil, fmt.Errorf("store: rule reference %d out of range (%d rules)", v, nrules)
					}
					rv.Syms[s] = sequitur.Sym{IsRule: true, Rule: int(v)}
				default:
					return nil, fmt.Errorf("store: bad symbol tag %d", tag)
				}
			}
			snap.Rules[id] = rv
		}
		out[i] = snap
	}
	if c.pos != len(payload) {
		return nil, fmt.Errorf("store: %d trailing bytes", len(payload)-c.pos)
	}
	return out, nil
}
