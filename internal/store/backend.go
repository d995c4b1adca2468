package store

import (
	"crypto/sha256"

	"tifs/internal/sequitur"
	"tifs/internal/sim"
	"tifs/internal/trace"
)

// Backend is the narrow interface the engine and the shard worker
// require of a result store: typed get/put/has by canonical job key.
// The on-disk Store is the local implementation; internal/remotestore
// provides an HTTP client implementation so sweeps can share a store
// across machines with no common filesystem.
//
// The contract every implementation must honor is the store's one-way
// defensiveness: a Get may miss for any reason (absent, corrupt,
// unreachable, degraded) — the caller then recomputes — but may never
// return bytes that differ from what a Put stored under that key. Put
// is fire-and-forget: persistence failures degrade (to memory, or to a
// queued write-back), they do not fail the simulation that produced
// the value.
type Backend interface {
	// GetResult returns the cached simulation result for an engine job
	// key, if present and decodable.
	GetResult(key string) (sim.Result, bool)
	// PutResult caches a simulation result under an engine job key.
	PutResult(key string, r sim.Result)
	// GetMissTraces returns the cached per-core miss traces for an
	// extraction key, if present and decodable.
	GetMissTraces(key string) ([][]trace.MissRecord, bool)
	// PutMissTraces caches per-core miss traces under an extraction key.
	PutMissTraces(key string, recs [][]trace.MissRecord)
	// GetGrammars returns the cached per-core SEQUITUR grammar snapshots
	// for an analysis key, if present and decodable.
	GetGrammars(key string) ([]*sequitur.Snapshot, bool)
	// PutGrammars caches per-core grammar snapshots under an analysis key.
	PutGrammars(key string, snaps []*sequitur.Snapshot)
	// HasResult reports presence without counting a hit or miss.
	HasResult(key string) bool
	// HasMissTraces is HasResult for trace extractions.
	HasMissTraces(key string) bool
	// Close releases the backend's resources (locks, queued
	// write-backs); the backend is unusable afterwards.
	Close() error
}

var _ Backend = (*Store)(nil)

// Addr is a content address: the SHA-256 over (kind, canonical key).
// Blob-level APIs (the remote store protocol, Store.GetBlob/PutBlob)
// move payloads by Addr; the typed Backend methods derive it.
type Addr = [sha256.Size]byte

// Record kinds, exported for blob-level callers. The kind byte is part
// of the content address, so a result and a miss-trace extraction with
// the same key can never collide.
const (
	KindResult     = kindResult
	KindMissTraces = kindMissTraces
	// KindGrammars is declared alongside the codec in grammar.go.
)

// Address derives the content address of (kind, key) — the identity
// blobs travel under between store replicas.
func Address(kind byte, key string) Addr { return address(kind, key) }

// GetBlob returns the raw payload stored under a content address, if
// any. Blob payloads are the codec-encoded forms EncodeResult and
// EncodeMissTraces produce; callers decode (and thereby validate) them
// before use.
func (s *Store) GetBlob(addr Addr) ([]byte, bool) {
	s.mu.Lock()
	payload, ok := s.entries[addr]
	s.mu.Unlock()
	return payload, ok
}

// PutBlob stores a raw payload under a content address, appending it to
// the owned log exactly like a typed put. The payload is not validated:
// the address is the identity, and a payload that later fails to decode
// degrades to a cache miss at read time, never to wrong numbers.
func (s *Store) PutBlob(addr Addr, payload []byte) { s.putAddr(addr, payload) }

// EncodeResult serializes a simulation result in the store's payload
// codec (complete and lossless; see codec.go).
func EncodeResult(r sim.Result) []byte { return encodeResult(r) }

// DecodeResult inverts EncodeResult. Errors mean the payload is not a
// valid result encoding and must be treated as a cache miss.
func DecodeResult(payload []byte) (sim.Result, error) { return decodeResult(payload) }

// EncodeMissTraces serializes per-core miss traces in the store's
// payload codec.
func EncodeMissTraces(recs [][]trace.MissRecord) ([]byte, error) { return encodeMissTraces(recs) }

// DecodeMissTraces inverts EncodeMissTraces.
func DecodeMissTraces(payload []byte) ([][]trace.MissRecord, error) {
	return decodeMissTraces(payload)
}
