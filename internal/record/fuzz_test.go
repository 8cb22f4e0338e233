package record

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cord/internal/clock"
)

// FuzzDecodeFrom ensures the binary log decoder never panics or over-reads
// on arbitrary input, and that anything it accepts re-encodes to an
// equivalent log.
func FuzzDecodeFrom(f *testing.F) {
	var l Log
	l.Append(Entry{Clock: 7, Thread: 1, Instr: 42})
	var seedBuf bytes.Buffer
	if err := l.EncodeTo(&seedBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.Bytes())
	f.Add([]byte("CORD"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.EncodeTo(&out); err != nil {
			t.Fatalf("decoded log failed to re-encode: %v", err)
		}
		back, err := DecodeFrom(&out)
		if err != nil {
			t.Fatalf("re-encoded log failed to decode: %v", err)
		}
		if back.Len() != got.Len() {
			t.Fatalf("round trip changed length: %d -> %d", got.Len(), back.Len())
		}
	})
}

// fuzzEntries decodes a fuzzer input into a thread count (1–64) and an entry
// sequence. Each entry takes three bytes: a thread byte (0xFF names the
// first thread the session does not have) and two bytes choosing the clock
// delta from the thread's previous entry: a small step, a large step that
// stays inside clock.Window (so clocks wrap quickly), or an arbitrary 16-bit
// delta that usually lies beyond the window. A thread's first entry takes
// the two bytes as its starting clock.
func fuzzEntries(data []byte) (int, []Entry) {
	if len(data) == 0 {
		return 1, nil
	}
	threads := 1 + int(data[0])%64
	last := make([]uint16, threads)
	started := make([]bool, threads)
	var entries []Entry
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		th, lo, hi := b[0], uint16(b[1]), uint16(b[2])
		if th == 0xFF {
			entries = append(entries, Entry{Clock: clock.Scalar(lo), Thread: uint16(threads), Instr: 1})
			continue
		}
		t := int(th) % threads
		switch {
		case !started[t]:
			started[t] = true
			last[t] = lo | hi<<8
		case hi < 0x80:
			last[t] += lo
		case hi < 0xC0:
			last[t] += lo << 7
		default:
			last[t] += lo | hi<<8
		}
		entries = append(entries, Entry{Clock: clock.Scalar(last[t]), Thread: uint16(t), Instr: uint32(hi)})
	}
	return threads, entries
}

// FuzzEpochStream checks the EpochStream contract against the batch
// Log.Schedule on fuzzer-chosen logs: the Push releases followed by Flush
// equal Schedule's epochs, and a broken log fails at the same entry with the
// same verdict, after releasing only a prefix of the schedule of the entries
// before it.
func FuzzEpochStream(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 5, 0, 2, 9, 0, 0, 3, 0, 1, 7, 0})
	f.Add([]byte{0, 0, 0xF0, 0xFF, 0, 0xFF, 0xB0, 0, 0xFF, 0xB0, 0, 0x20, 0x70})
	f.Add([]byte{63, 0, 1, 0, 63, 2, 0, 1, 3, 0, 0, 0xFF, 0xFF, 0, 4, 0})
	f.Add([]byte{1, 0, 0x10, 0, 0, 0x20, 0xC0, 1, 0, 0, 0xFF, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		threads, entries := fuzzEntries(data)
		l := &Log{entries: entries}
		want, werr := l.Schedule(threads)

		s := NewEpochStream(threads)
		var got []Epoch
		for i, e := range entries {
			rel, err := s.Push(e)
			if err != nil {
				if werr == nil {
					t.Fatalf("Push rejected entry %d (%v); Schedule accepted the log", i, err)
				}
				if err.Error() != werr.Error() || !strings.Contains(err.Error(), fmt.Sprintf("entry %d ", i)) {
					t.Fatalf("Push failed at entry %d with %q; Schedule said %q", i, err, werr)
				}
				prefix, perr := (&Log{entries: entries[:i]}).Schedule(threads)
				if perr != nil || !epochsEqual(got, prefix[:min(len(got), len(prefix))]) {
					t.Fatalf("epochs released before the error are not a prefix of the schedule of entries[:%d]", i)
				}
				if _, again := s.Push(e); again != err {
					t.Fatalf("error not sticky: %v then %v", err, again)
				}
				return
			}
			got = append(got, rel...)
			if len(got)+s.Pending() != i+1 {
				t.Fatalf("after entry %d: %d released + %d pending", i, len(got), s.Pending())
			}
		}
		if werr != nil {
			t.Fatalf("Schedule rejected the log (%v); EpochStream accepted it", werr)
		}
		got = append(got, s.Flush()...)
		if s.Pending() != 0 || !epochsEqual(got, want) {
			t.Fatalf("%d threads, %d entries: released epochs differ from Schedule", threads, len(entries))
		}
	})
}
