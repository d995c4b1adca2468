package isa

// EventSource yields a stream of dynamic basic-block events. Workload
// executors, trace readers, and replay buffers all implement it; the
// simulator and the offline analyses consume it.
type EventSource interface {
	// Next returns the next event. ok is false when the source is
	// exhausted; infinite sources (live workload executors) never return
	// false and are bounded by the caller.
	Next() (ev BlockEvent, ok bool)
}

// BatchSource is an optional EventSource extension: NextBatch fills dst
// with up to len(dst) events and returns how many were written (short
// only when the source is exhausted). Consumers that do not need
// per-event pacing (the fetch unit's fetch-target queue, trace
// extraction) use it to amortize interface dispatch and event copies
// across a whole buffer refill.
type BatchSource interface {
	NextBatch(dst []BlockEvent) int
}

// SliceSource adapts an in-memory event slice to an EventSource.
type SliceSource struct {
	events []BlockEvent
	pos    int
}

// NewSliceSource returns a source that yields the given events in order.
// The slice is not copied.
func NewSliceSource(events []BlockEvent) *SliceSource {
	return &SliceSource{events: events}
}

// Next implements EventSource.
func (s *SliceSource) Next() (BlockEvent, bool) {
	if s.pos >= len(s.events) {
		return BlockEvent{}, false
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, true
}

// NextBatch implements BatchSource without per-event copies through the
// EventSource return path.
func (s *SliceSource) NextBatch(dst []BlockEvent) int {
	n := copy(dst, s.events[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains up to n events from src into a fresh slice. If n is 0 the
// source is drained until exhaustion (do not pass 0 with infinite sources).
func Collect(src EventSource, n uint64) []BlockEvent {
	var out []BlockEvent
	if n > 0 {
		out = make([]BlockEvent, 0, n)
	}
	for n == 0 || uint64(len(out)) < n {
		ev, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	return out
}
