package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"tifs/internal/isa"
)

// Binary trace format: a short header followed by delta/varint-packed
// records. PC and block numbers are delta-encoded against the previous
// record (zigzag varint), which makes instruction traces compact: most
// deltas are small.
const (
	magic         = "TIFS"
	formatVersion = 1

	kindEvents byte = 1
	kindMisses byte = 2

	// headerLen is the size of a stream header: magic, version, kind.
	headerLen = len(magic) + 2
)

// event flag bits.
const (
	flagTaken       = 1 << 0
	flagInnerLoop   = 1 << 1
	flagSerializing = 1 << 2
)

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func writeHeader(w *bufio.Writer, kind byte) error {
	if _, err := w.WriteString(magic); err != nil {
		return err
	}
	if err := w.WriteByte(formatVersion); err != nil {
		return err
	}
	return w.WriteByte(kind)
}

func readHeader(r *bufio.Reader, wantKind byte) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return fmt.Errorf("trace: bad magic %q", m)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return err
	}
	if ver != formatVersion {
		return fmt.Errorf("trace: unsupported version %d", ver)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return err
	}
	if kind != wantKind {
		return fmt.Errorf("trace: stream kind %d, want %d", kind, wantKind)
	}
	return nil
}

func putUvarint(w *bufio.Writer, buf []byte, v uint64) error {
	n := binary.PutUvarint(buf, v)
	_, err := w.Write(buf[:n])
	return err
}

// EventWriter serializes BlockEvents.
type EventWriter struct {
	w      *bufio.Writer
	buf    []byte
	prevPC isa.Addr
	count  uint64
}

// NewEventWriter starts an event stream on w.
func NewEventWriter(w io.Writer) (*EventWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, kindEvents); err != nil {
		return nil, err
	}
	return &EventWriter{w: bw, buf: make([]byte, binary.MaxVarintLen64)}, nil
}

// Write appends one event.
func (ew *EventWriter) Write(ev isa.BlockEvent) error {
	if err := putUvarint(ew.w, ew.buf, zigzag(int64(ev.PC)-int64(ew.prevPC))); err != nil {
		return err
	}
	ew.prevPC = ev.PC
	if err := putUvarint(ew.w, ew.buf, uint64(ev.Instrs)); err != nil {
		return err
	}
	flags := byte(0)
	if ev.Taken {
		flags |= flagTaken
	}
	if ev.InnerLoop {
		flags |= flagInnerLoop
	}
	if ev.Serializing {
		flags |= flagSerializing
	}
	if err := ew.w.WriteByte(byte(ev.Kind)<<3 | flags); err != nil {
		return err
	}
	// Target is meaningful for everything but pure fallthrough.
	if ev.Kind != isa.CTFallthrough {
		if err := putUvarint(ew.w, ew.buf, zigzag(int64(ev.Target)-int64(ev.PC))); err != nil {
			return err
		}
	}
	ew.count++
	return nil
}

// Count returns the number of events written.
func (ew *EventWriter) Count() uint64 { return ew.count }

// Flush flushes buffered output; call it before closing the underlying
// writer.
func (ew *EventWriter) Flush() error { return ew.w.Flush() }

// EventReader deserializes an event stream; it implements
// isa.EventSource.
type EventReader struct {
	r      *bufio.Reader
	prevPC isa.Addr
	err    error
}

// NewEventReader opens an event stream from r.
func NewEventReader(r io.Reader) (*EventReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := readHeader(br, kindEvents); err != nil {
		return nil, err
	}
	return &EventReader{r: br}, nil
}

// Next implements isa.EventSource. The stream ends cleanly at EOF;
// corruption is reported by Err.
func (er *EventReader) Next() (isa.BlockEvent, bool) {
	if er.err != nil {
		return isa.BlockEvent{}, false
	}
	d, err := binary.ReadUvarint(er.r)
	if err == io.EOF {
		return isa.BlockEvent{}, false
	}
	if err != nil {
		er.err = err
		return isa.BlockEvent{}, false
	}
	var ev isa.BlockEvent
	ev.PC = isa.Addr(int64(er.prevPC) + unzigzag(d))
	er.prevPC = ev.PC

	instrs, err := binary.ReadUvarint(er.r)
	if err != nil {
		er.err = fmt.Errorf("trace: truncated event: %w", err)
		return isa.BlockEvent{}, false
	}
	ev.Instrs = int(instrs)

	kb, err := er.r.ReadByte()
	if err != nil {
		er.err = fmt.Errorf("trace: truncated event: %w", err)
		return isa.BlockEvent{}, false
	}
	ev.Kind = isa.CTKind(kb >> 3)
	ev.Taken = kb&flagTaken != 0
	ev.InnerLoop = kb&flagInnerLoop != 0
	ev.Serializing = kb&flagSerializing != 0

	if ev.Kind != isa.CTFallthrough {
		td, err := binary.ReadUvarint(er.r)
		if err != nil {
			er.err = fmt.Errorf("trace: truncated event: %w", err)
			return isa.BlockEvent{}, false
		}
		ev.Target = isa.Addr(int64(ev.PC) + unzigzag(td))
	}
	return ev, true
}

// Err returns the first decode error, if any (io.EOF is a clean end and
// not reported).
func (er *EventReader) Err() error { return er.err }

// MissWriter serializes MissRecords.
type MissWriter struct {
	w       *bufio.Writer
	buf     []byte
	prevBlk isa.Block
	prevSeq uint64
	count   uint64
}

// NewMissWriter starts a miss stream on w.
func NewMissWriter(w io.Writer) (*MissWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, kindMisses); err != nil {
		return nil, err
	}
	return &MissWriter{w: bw, buf: make([]byte, binary.MaxVarintLen64)}, nil
}

// Write appends one miss record.
func (mw *MissWriter) Write(m MissRecord) error {
	if err := putUvarint(mw.w, mw.buf, zigzag(int64(m.Block)-int64(mw.prevBlk))); err != nil {
		return err
	}
	mw.prevBlk = m.Block
	if err := putUvarint(mw.w, mw.buf, m.Seq-mw.prevSeq); err != nil {
		return err
	}
	mw.prevSeq = m.Seq
	if err := putUvarint(mw.w, mw.buf, uint64(m.Branches)); err != nil {
		return err
	}
	seq := byte(0)
	if m.Sequential {
		seq = 1
	}
	if err := mw.w.WriteByte(seq); err != nil {
		return err
	}
	mw.count++
	return nil
}

// Count returns the number of records written.
func (mw *MissWriter) Count() uint64 { return mw.count }

// Flush flushes buffered output.
func (mw *MissWriter) Flush() error { return mw.w.Flush() }

// MissReader deserializes a miss stream.
type MissReader struct {
	r       *bufio.Reader
	prevBlk isa.Block
	prevSeq uint64
	err     error
}

// NewMissReader opens a miss stream from r.
func NewMissReader(r io.Reader) (*MissReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := readHeader(br, kindMisses); err != nil {
		return nil, err
	}
	return &MissReader{r: br}, nil
}

// Next returns the next record; ok is false at end of stream or on error
// (see Err).
func (mr *MissReader) Next() (MissRecord, bool) {
	if mr.err != nil {
		return MissRecord{}, false
	}
	d, err := binary.ReadUvarint(mr.r)
	if err == io.EOF {
		return MissRecord{}, false
	}
	if err != nil {
		mr.err = err
		return MissRecord{}, false
	}
	var m MissRecord
	m.Block = isa.Block(int64(mr.prevBlk) + unzigzag(d))
	mr.prevBlk = m.Block

	ds, err := binary.ReadUvarint(mr.r)
	if err != nil {
		mr.err = fmt.Errorf("trace: truncated miss: %w", err)
		return MissRecord{}, false
	}
	m.Seq = mr.prevSeq + ds
	mr.prevSeq = m.Seq

	br, err := binary.ReadUvarint(mr.r)
	if err != nil {
		mr.err = fmt.Errorf("trace: truncated miss: %w", err)
		return MissRecord{}, false
	}
	m.Branches = int(br)

	sb, err := mr.r.ReadByte()
	if err != nil {
		mr.err = fmt.Errorf("trace: truncated miss: %w", err)
		return MissRecord{}, false
	}
	m.Sequential = sb != 0
	return m, true
}

// Err returns the first decode error, if any.
func (mr *MissReader) Err() error { return mr.err }

// ReadAllMisses decodes a whole miss stream held in memory. It returns
// the records and the error that draining a MissReader over data would,
// but decodes in place and allocates the result once: in a valid stream
// every record has exactly four bytes below 0x80 (the last byte of each of
// its three varints, and the Sequential byte), so one counting pass gives
// the length. A malformed stream is decoded again through a MissReader,
// so each error is the reader's own.
func ReadAllMisses(data []byte) ([]MissRecord, error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic ||
		data[len(magic)] != formatVersion || data[len(magic)+1] != kindMisses {
		return drainMisses(data)
	}
	body := data[headerLen:]
	terminal := 0
	for _, c := range body {
		if c < 0x80 {
			terminal++
		}
	}
	var out []MissRecord
	if terminal >= 4 {
		out = make([]MissRecord, 0, terminal/4)
	}
	var prevBlk isa.Block
	var prevSeq uint64
	for len(body) > 0 {
		d, n1 := binary.Uvarint(body)
		if n1 <= 0 {
			return drainMisses(data)
		}
		ds, n2 := binary.Uvarint(body[n1:])
		if n2 <= 0 {
			return drainMisses(data)
		}
		br, n3 := binary.Uvarint(body[n1+n2:])
		k := n1 + n2 + n3
		if n3 <= 0 || k >= len(body) {
			return drainMisses(data)
		}
		prevBlk = isa.Block(int64(prevBlk) + unzigzag(d))
		prevSeq += ds
		out = append(out, MissRecord{Block: prevBlk, Seq: prevSeq, Branches: int(br), Sequential: body[k] != 0})
		body = body[k+1:]
	}
	return out, nil
}

// drainMisses reads data through a MissReader to its end or first error.
func drainMisses(data []byte) ([]MissRecord, error) {
	mr, err := NewMissReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var out []MissRecord
	for {
		m, ok := mr.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out, mr.Err()
}
