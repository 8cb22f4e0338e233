package record

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"cord/internal/clock"
)

// pushAll feeds every entry of l through an EpochStream and returns the
// concatenation of all released epochs (Push results + final Flush).
func pushAll(t *testing.T, l *Log, threads int) []Epoch {
	t.Helper()
	s := NewEpochStream(threads)
	var got []Epoch
	for i, e := range l.Entries() {
		rel, err := s.Push(e)
		if err != nil {
			t.Fatalf("Push entry %d: %v", i, err)
		}
		got = append(got, rel...)
	}
	return append(got, s.Flush()...)
}

func epochsEqual(a, b []Epoch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEpochStreamMatchesSchedule: the incremental release order equals the
// batch Schedule sort for logs with interleaved threads, equal-time ties and
// idle gaps.
func TestEpochStreamMatchesSchedule(t *testing.T) {
	logs := map[string]*Log{
		"round-robin": sampleLog(257),
		"single":      {entries: []Entry{{Clock: 5, Thread: 0, Instr: 9}}},
		"empty":       {},
	}
	// Bursty interleaving: threads speak in runs, with equal clock values
	// across threads so the Index tie-break matters.
	bursty := &Log{}
	for round := 0; round < 40; round++ {
		for th := 0; th < 3; th++ {
			for k := 0; k < 1+(round+th)%3; k++ {
				bursty.Append(Entry{Clock: clock.Scalar(round * 2), Thread: uint16(th), Instr: uint32(round + k)})
			}
		}
	}
	logs["bursty"] = bursty
	// A thread that starts late: nothing releases before it speaks.
	late := &Log{}
	for i := 0; i < 50; i++ {
		late.Append(Entry{Clock: clock.Scalar(i), Thread: uint16(i % 2), Instr: 1})
	}
	late.Append(Entry{Clock: 3, Thread: 2, Instr: 7})
	for i := 50; i < 80; i++ {
		late.Append(Entry{Clock: clock.Scalar(i), Thread: uint16(i % 3), Instr: 1})
	}
	logs["late-starter"] = late

	for name, l := range logs {
		threads := 4
		if name == "bursty" || name == "late-starter" {
			threads = 3
		}
		want, err := l.Schedule(threads)
		if err != nil {
			t.Fatalf("%s: Schedule: %v", name, err)
		}
		if got := pushAll(t, l, threads); !epochsEqual(got, want) {
			t.Errorf("%s: incremental epochs differ from Schedule\ngot  %v\nwant %v", name, got, want)
		}
	}
}

// TestEpochStreamMatchesScheduleRandom: randomized per-thread clock walks
// (including zero deltas and window-sized jumps) stay equivalent to the batch
// sort under property testing.
func TestEpochStreamMatchesScheduleRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		threads := 1 + rng.IntN(6)
		l := &Log{}
		clocks := make([]uint16, threads)
		for i := 0; i < 200; i++ {
			th := rng.IntN(threads)
			clocks[th] += uint16(rng.IntN(clock.Window / 4))
			l.Append(Entry{Clock: clock.Scalar(clocks[th]), Thread: uint16(th), Instr: uint32(rng.IntN(100))})
		}
		want, err := l.Schedule(threads)
		if err != nil {
			t.Fatalf("trial %d: Schedule: %v", trial, err)
		}
		if got := pushAll(t, l, threads); !epochsEqual(got, want) {
			t.Fatalf("trial %d (threads=%d): incremental epochs diverge from Schedule", trial, threads)
		}
	}
}

// wrapLog builds a log whose per-thread clocks straddle the 16-bit wrap
// boundary: every delta stays inside the comparison window, so the unwrapped
// 64-bit times keep growing monotonically through 65535 → 0.
func wrapLog(threads int) *Log {
	l := &Log{}
	start := 1<<16 - 40*threads // close enough to the top that the walk wraps
	for i := 0; i < 120*threads; i++ {
		th := i % threads
		l.Append(Entry{
			Clock:  clock.Scalar(uint16(start + (i/threads)*97 + th)),
			Thread: uint16(th),
			Instr:  uint32(1 + i%7),
		})
	}
	return l
}

// TestEpochStreamClockWrap: the watermark release stays equivalent to the
// batch sort across the 16-bit wrap, and the unwrapped times really are
// monotone (the wrap did happen and was handled, not avoided).
func TestEpochStreamClockWrap(t *testing.T) {
	l := wrapLog(4)
	want, err := l.Schedule(4)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	wrapped := false
	for i := 1; i < len(want); i++ {
		if want[i].Time < want[i-1].Time {
			t.Fatalf("Schedule times not monotone at %d", i)
		}
		if want[i].Time >= 1<<16 {
			wrapped = true
		}
	}
	if !wrapped {
		t.Fatal("fixture never crossed the 16-bit boundary; the test proves nothing")
	}
	if got := pushAll(t, l, 4); !epochsEqual(got, want) {
		t.Fatal("incremental epochs diverge from Schedule across the clock wrap")
	}
}

// TestStreamDecoderWrapBoundaryChunked is the satellite coverage: the wrap
// fixture's wire bytes decode identically via one-shot DecodeFrom and via
// StreamDecoder.Feed at every chunk size from 1 to 17 bytes — sizes that
// split the header and every entry at each possible offset.
func TestStreamDecoderWrapBoundaryChunked(t *testing.T) {
	l := wrapLog(4)
	b := encodeLog(t, l)
	want, err := DecodeFrom(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("DecodeFrom: %v", err)
	}
	for size := 1; size <= 17; size++ {
		d := NewStreamDecoder()
		var got []Entry
		for off := 0; off < len(b); off += size {
			end := min(off+size, len(b))
			if err := d.Feed(b[off:end], func(e Entry) error { got = append(got, e); return nil }); err != nil {
				t.Fatalf("chunk size %d: Feed: %v", size, err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatalf("chunk size %d: Close: %v", size, err)
		}
		if len(got) != want.Len() {
			t.Fatalf("chunk size %d: decoded %d entries, want %d", size, len(got), want.Len())
		}
		for i, e := range want.Entries() {
			if got[i] != e {
				t.Fatalf("chunk size %d: entry %d = %v, want %v", size, i, got[i], e)
			}
		}
	}
}

// TestEpochStreamErrors: the incremental verdicts match Schedule's for the
// same broken logs, and are sticky.
func TestEpochStreamErrors(t *testing.T) {
	cases := map[string]*Log{
		"bad-thread": {entries: []Entry{{Clock: 1, Thread: 9, Instr: 1}}},
		"regressed": {entries: []Entry{
			{Clock: 100, Thread: 0, Instr: 1},
			{Clock: 50, Thread: 0, Instr: 1}, // delta 65486 > window
		}},
	}
	for name, l := range cases {
		if _, err := l.Schedule(4); err == nil {
			t.Fatalf("%s: Schedule accepted the broken log", name)
		}
		s := NewEpochStream(4)
		var first error
		for _, e := range l.Entries() {
			if _, err := s.Push(e); err != nil {
				first = err
				break
			}
		}
		if first == nil {
			t.Fatalf("%s: EpochStream accepted the broken log", name)
		}
		if _, err := s.Push(Entry{Clock: 1, Thread: 0, Instr: 1}); !errors.Is(err, first) {
			t.Fatalf("%s: error not sticky: %v", name, err)
		}
	}
}

// TestStreamDecoderResetContract pins the documented Reset semantics: a
// sticky error persists across further Feed and Close calls, Reset is the
// only way out, and a post-Reset decoder demands a fresh header — feeding it
// the continuation of the previously failed stream is rejected as bad magic
// instead of silently emitting entries from a desynchronized offset.
func TestStreamDecoderResetContract(t *testing.T) {
	good := encodeLog(t, sampleLog(8))
	bad := append([]byte("XORD"), good[4:]...) // bad magic up front

	d := NewStreamDecoder()
	err := d.Feed(bad, nil)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic not rejected: %v", err)
	}
	// Sticky: later Feeds and Close keep returning the original verdict.
	if err2 := d.Feed(good, nil); !errors.Is(err2, ErrBadFormat) {
		t.Fatalf("Feed after failure = %v, want sticky ErrBadFormat", err2)
	}
	if err2 := d.Close(); !errors.Is(err2, ErrBadFormat) {
		t.Fatalf("Close after failure = %v, want sticky ErrBadFormat", err2)
	}

	// Reset starts a NEW stream: the same decoder now accepts a full log.
	d.Reset()
	var n int
	if err := d.Feed(good, func(Entry) error { n++; return nil }); err != nil {
		t.Fatalf("Feed after Reset: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close after Reset: %v", err)
	}
	if n != 8 {
		t.Fatalf("decoded %d entries after Reset, want 8", n)
	}

	// Resuming a damaged stream mid-way after Reset must NOT emit entries:
	// the continuation bytes are interpreted as a new stream's header and
	// rejected (entry bytes never match the CORD magic).
	d2 := NewStreamDecoder()
	if err := d2.Feed(bad[:20], nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("setup: want header rejection, got %v", err)
	}
	d2.Reset()
	emitted := 0
	err = d2.Feed(good[20:], func(Entry) error { emitted++; return nil })
	if emitted != 0 {
		t.Fatalf("continuation bytes after Reset emitted %d entries; want a header verdict instead", emitted)
	}
	if err == nil {
		// The first 16 continuation bytes buffered as a header candidate may
		// not complete in one Feed; Close must still refuse the stream.
		err = d2.Close()
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("continuation stream accepted after Reset: %v", err)
	}
}

func TestEpochStreamRejectsOrderViolationTyped(t *testing.T) {
	// The streaming path must produce the same typed order_violation
	// verdicts as the one-shot Schedule, and stay sticky afterwards.
	t.Run("regressed clock near the wrap", func(t *testing.T) {
		s := NewEpochStream(1)
		if _, err := s.Push(Entry{Clock: 0x0010, Thread: 0, Instr: 1}); err != nil {
			t.Fatal(err)
		}
		_, err := s.Push(Entry{Clock: 0xFFF0, Thread: 0, Instr: 1})
		if !errors.Is(err, ErrOrderViolation) {
			t.Fatalf("err = %v, want ErrOrderViolation", err)
		}
		// Sticky: the violated stream keeps answering with the same verdict.
		if _, err := s.Push(Entry{Clock: 0x0011, Thread: 0, Instr: 1}); !errors.Is(err, ErrOrderViolation) {
			t.Fatalf("sticky err = %v, want ErrOrderViolation", err)
		}
	})
	t.Run("thread outside the session", func(t *testing.T) {
		s := NewEpochStream(2)
		if _, err := s.Push(Entry{Clock: 1, Thread: 7, Instr: 1}); !errors.Is(err, ErrOrderViolation) {
			t.Fatalf("err = %v, want ErrOrderViolation", err)
		}
	})
}

// skewedLog builds n entries in the shape of a recorded run: each entry goes
// to a random one of threads threads, whose clock advances by one or catches
// up to within maxSkew ticks of the leading clock. The clocks wrap their 16
// bits many times over a long log.
func skewedLog(n, threads int, maxSkew uint64, seed uint64) []Entry {
	rng := rand.New(rand.NewPCG(seed, 0x10C5))
	clocks := make([]uint64, threads)
	lead := uint64(0)
	out := make([]Entry, n)
	for i := range out {
		t := rng.IntN(threads)
		out[i] = Entry{Clock: clock.Scalar(clocks[t]), Thread: uint16(t), Instr: 1 + rng.Uint32N(1000)}
		clocks[t] = max(clocks[t]+1, lead-min(lead, maxSkew))
		lead = max(lead, clocks[t])
	}
	return out
}

// BenchmarkEpochStreamPush measures EpochStream.Push plus the final Flush
// per frame on skewed logs (at most 200 ticks between the leading and the
// trailing thread) at several thread counts.
func BenchmarkEpochStreamPush(b *testing.B) {
	const frames = 1 << 16
	for _, threads := range []int{4, 16, 64} {
		entries := skewedLog(frames, threads, 200, 1)
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewEpochStream(threads)
				released := 0
				for _, e := range entries {
					rel, err := s.Push(e)
					if err != nil {
						b.Fatal(err)
					}
					released += len(rel)
				}
				if released+len(s.Flush()) != frames {
					b.Fatal("epochs lost")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
		})
	}
}
