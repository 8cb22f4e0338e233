package record

import (
	"fmt"
	"math"

	"cord/internal/clock"
)

// EpochStream incrementally converts a streamed entry sequence into the same
// globally ordered epoch schedule Log.Schedule produces, without ever holding
// the whole log. It is the ordering half of the service's online-detection
// path (PROTOCOL.md §4.7): as entries arrive, Push unwraps each thread's
// 16-bit clock into monotone 64-bit logical time and releases every epoch
// that can no longer be reordered by future input.
//
// The release rule is a watermark: per-thread unwrapped times are
// nondecreasing, so once every one of the session's threads has appeared, any
// buffered epoch with Time at or below the minimum of the threads' last
// unwrapped times is final — a future entry either has a strictly larger Time
// or, on an equal Time, a larger stream Index, and Schedule breaks equal-Time
// ties by Index. Until all threads have started the watermark is zero (an
// unseen thread's first clock value may be anything), so nothing past logical
// time zero is released; epochs of a thread that never speaks drain in Flush.
//
// The release itself is a per-thread merge. One thread's epochs arrive
// already sorted by (Time, Index), so each thread buffers its own in a FIFO,
// and a min-heap over the threads' head epochs (at most one entry per
// thread) picks the next epoch to release. The watermark is rescanned only
// when the thread holding it advances, since no other thread's progress can
// raise the minimum.
//
// The concatenation of every slice Push returns, followed by Flush's
// remainder, is exactly Schedule's output for the same entries: same epochs,
// same order, same Index values.
type EpochStream struct {
	last      []clock.Scalar
	unwrapped []uint64
	started   []bool
	unstarted int

	watermark uint64 // min of unwrapped once every thread has started, else 0
	minThread int    // a thread whose unwrapped time is the watermark

	heads   []Epoch      // min-heap on (Time, Index): each queued thread's oldest epoch
	queued  []bool       // queued[t]: thread t has its oldest epoch in heads
	rest    []epochQueue // rest[t]: thread t's buffered epochs after its head
	pending int

	next int     // stream index of the next entry
	out  []Epoch // reused release buffer handed out by Push
	err  error   // sticky: a violated stream stays violated
}

// NewEpochStream builds a stream for a session of numThreads threads.
func NewEpochStream(numThreads int) *EpochStream {
	return &EpochStream{
		last:      make([]clock.Scalar, numThreads),
		unwrapped: make([]uint64, numThreads),
		started:   make([]bool, numThreads),
		unstarted: numThreads,
		queued:    make([]bool, numThreads),
		rest:      make([]epochQueue, numThreads),
	}
}

// Pending returns the number of buffered epochs not yet released — what Flush
// would currently return.
func (s *EpochStream) Pending() int { return s.pending }

// Push ingests the next entry and returns the epochs that became final, in
// global schedule order. The returned slice is valid only until the next Push
// or Flush call; callers that retain epochs must copy them. Errors (an entry
// naming a thread the session does not have, or a clock delta outside the
// comparison window) are sticky and match Log.Schedule's verdicts for the
// same entries.
func (s *EpochStream) Push(e Entry) ([]Epoch, error) {
	if s.err != nil {
		return nil, s.err
	}
	t := int(e.Thread)
	if t >= len(s.last) {
		s.err = fmt.Errorf("%w: entry %d names thread %d, have %d threads", ErrOrderViolation, s.next, t, len(s.last))
		return nil, s.err
	}
	if !s.started[t] {
		s.started[t] = true
		s.unwrapped[t] = uint64(e.Clock)
		if s.unstarted--; s.unstarted == 0 {
			s.minThread = t // forces the first watermark scan below
		}
	} else {
		delta := uint16(e.Clock - s.last[t])
		if int(delta) > clock.Window {
			s.err = fmt.Errorf("%w: entry %d clock regressed for thread %d", ErrOrderViolation, s.next, t)
			return nil, s.err
		}
		s.unwrapped[t] += uint64(delta)
	}
	s.last[t] = e.Clock
	ep := Epoch{Time: s.unwrapped[t], Thread: t, Instr: e.Instr, Index: s.next}
	if s.queued[t] {
		s.rest[t].push(ep)
	} else {
		s.queued[t] = true
		s.heapPush(ep)
	}
	s.pending++
	s.next++

	if s.unstarted == 0 && t == s.minThread {
		s.watermark, s.minThread = s.unwrapped[0], 0
		for u, w := range s.unwrapped {
			if w < s.watermark {
				s.watermark, s.minThread = w, u
			}
		}
	}
	return s.release(s.watermark), nil
}

// Flush releases every still-buffered epoch in schedule order; call it at end
// of stream. The returned slice is valid until the next Push or Flush.
func (s *EpochStream) Flush() []Epoch { return s.release(math.MaxUint64) }

// release pops the merged heads, in (Time, Index) order, while they are at
// or below limit.
func (s *EpochStream) release(limit uint64) []Epoch {
	s.out = s.out[:0]
	for len(s.heads) > 0 && s.heads[0].Time <= limit {
		top := s.heads[0]
		s.out = append(s.out, top)
		s.pending--
		if next, ok := s.rest[top.Thread].pop(); ok {
			s.heads[0] = next
		} else {
			s.queued[top.Thread] = false
			n := len(s.heads) - 1
			s.heads[0] = s.heads[n]
			s.heads = s.heads[:n]
		}
		s.siftDown()
	}
	return s.out
}

// epochLess orders the heap by (Time, Index) — Schedule's sort key. Index is
// unique per entry, so the order is total and the merge is the exact sorted
// sequence.
func epochLess(a, b Epoch) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Index < b.Index
}

func (s *EpochStream) heapPush(e Epoch) {
	s.heads = append(s.heads, e)
	h := s.heads
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !epochLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown restores the heap after its root was replaced.
func (s *EpochStream) siftDown() {
	h := s.heads
	n := len(h)
	if n == 0 {
		return
	}
	e := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && epochLess(h[c+1], h[c]) {
			c++
		}
		if !epochLess(h[c], e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// epochQueue is one thread's FIFO of buffered epochs. The backing array is
// reused: it resets when the queue empties and compacts in place when it is
// full and at least half of it has been consumed, so a thread whose queue
// never fully drains does not grow it without bound.
type epochQueue struct {
	eps  []Epoch
	head int
}

func (q *epochQueue) push(e Epoch) {
	if len(q.eps) == cap(q.eps) && q.head > 0 && q.head >= len(q.eps)/2 {
		q.eps = q.eps[:copy(q.eps, q.eps[q.head:])]
		q.head = 0
	}
	q.eps = append(q.eps, e)
}

func (q *epochQueue) pop() (Epoch, bool) {
	if q.head == len(q.eps) {
		return Epoch{}, false
	}
	e := q.eps[q.head]
	if q.head++; q.head == len(q.eps) {
		q.eps, q.head = q.eps[:0], 0
	}
	return e, true
}
