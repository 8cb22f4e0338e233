package sim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cord/internal/memsys"
	"cord/internal/record"
)

// feedProg is a two-phase program with real blocking: thread 1 sets a flag
// thread 0 waits on, then both accumulate into disjoint words.
func feedProg() (Program, *memsys.Allocator) {
	al := memsys.NewAllocator()
	flag := NewFlag(al)
	out := al.Alloc(2)
	return Program{
		Name:    "feedprog",
		Threads: 2,
		Body: func(th int, env *Env) {
			if th == 0 {
				flag.WaitAtLeast(env, 1)
				for i := 0; i < 8; i++ {
					env.Write(out.Word(0), uint64(i))
				}
			} else {
				for i := 0; i < 4; i++ {
					env.Write(out.Word(1), uint64(i))
				}
				flag.Set(env, 1)
				for i := 0; i < 4; i++ {
					env.Write(out.Word(1), uint64(10+i))
				}
			}
		},
	}, al
}

// recordSchedule records feedProg under a CORD-style order observer by
// running it in normal mode with a recording epoch builder: rather than pull
// in internal/core (an import cycle for this package's tests), derive the
// epoch schedule from the committed ThreadInstr split — one epoch per thread
// per phase is enough to drive the replay scheduler through its blocking
// path deterministically.
func recordSchedule(t *testing.T) []record.Epoch {
	t.Helper()
	// Thread 1 must run first (it sets the flag), then thread 0.
	// Instruction counts come from one normal-mode run.
	prog, _ := feedProg()
	res, err := New(Config{Seed: 42, Jitter: 3}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Split each thread's committed instructions into a few epochs with
	// strictly interleaved times; thread 1's first epoch covers through the
	// flag set so thread 0 can wake.
	t0, t1 := res.ThreadInstr[0], res.ThreadInstr[1]
	if t0 == 0 || t1 < 6 {
		t.Fatalf("unexpected instruction split: %v", res.ThreadInstr)
	}
	return []record.Epoch{
		{Time: 1, Thread: 1, Instr: uint32(t1 - 4), Index: 0},
		{Time: 2, Thread: 0, Instr: uint32(t0 / 2), Index: 1},
		{Time: 2, Thread: 1, Instr: 4, Index: 2},
		{Time: 3, Thread: 0, Instr: uint32(t0 - t0/2), Index: 3},
	}
}

// TestReplayFeedMatchesBatch: driving the same epoch schedule through a
// ReplayFeed — appended one epoch at a time from another goroutine, with the
// engine repeatedly catching up and blocking — produces a Result identical
// to ReplayEpochs batch replay.
func TestReplayFeedMatchesBatch(t *testing.T) {
	epochs := recordSchedule(t)

	progA, _ := feedProg()
	want, err := New(Config{Seed: 42, ReplayEpochs: epochs}, progA).Run()
	if err != nil {
		t.Fatalf("batch replay: %v", err)
	}

	progB, _ := feedProg()
	feed := NewReplayFeed()
	go func() {
		for _, ep := range epochs {
			feed.Append(ep)
			time.Sleep(time.Millisecond) // force the engine to block between epochs
		}
		feed.CloseFeed()
	}()
	got, err := New(Config{Seed: 42, ReplayFeed: feed}, progB).Run()
	if err != nil {
		t.Fatalf("feed replay: %v", err)
	}

	if got.Ops != want.Ops || got.Cycles != want.Cycles || got.Accesses != want.Accesses {
		t.Fatalf("feed result differs: got %+v want %+v", got, want)
	}
	for i := range want.ReadHash {
		if got.ReadHash[i] != want.ReadHash[i] {
			t.Fatalf("thread %d read hash differs", i)
		}
	}
	if !got.Mem.Equal(want.Mem) {
		t.Fatal("final memory images differ")
	}
}

// TestReplayFeedOnEpoch: the OnEpoch callback fires once per index in order,
// starting at 0 and ending one past the last epoch.
func TestReplayFeedOnEpoch(t *testing.T) {
	epochs := recordSchedule(t)
	prog, _ := feedProg()
	feed := NewReplayFeed()
	feed.Append(epochs...)
	feed.CloseFeed()

	var calls []int
	_, err := New(Config{
		Seed:       42,
		ReplayFeed: feed,
		OnEpoch:    func(idx int) { calls = append(calls, idx) },
	}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(epochs)+1 {
		t.Fatalf("OnEpoch called %d times, want %d (calls: %v)", len(calls), len(epochs)+1, calls)
	}
	for i, idx := range calls {
		if idx != i {
			t.Fatalf("OnEpoch call %d has index %d (calls: %v)", i, idx, calls)
		}
	}
}

// TestReplayFeedCancelWhileWaiting: an engine blocked on an open, empty feed
// honors Cancel promptly and returns ErrCanceled — the session-abort path of
// the streaming service.
func TestReplayFeedCancelWhileWaiting(t *testing.T) {
	prog, _ := feedProg()
	feed := NewReplayFeed()
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{Seed: 42, ReplayFeed: feed, Cancel: cancel}, prog).Run()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the engine reach the feed wait
	close(cancel)
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run returned %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not honor Cancel while waiting on the feed")
	}
}

// TestReplayFeedEqualTimeArrivesLate: the equal-time reordering path must
// wait for a concurrent epoch that has not been appended yet instead of
// declaring the replay hung. Thread 0 blocks immediately; its designated
// epoch cannot run until thread 1's equal-time epoch arrives.
func TestReplayFeedEqualTimeArrivesLate(t *testing.T) {
	prog, _ := feedProg()
	res, err := New(Config{Seed: 42, Jitter: 3}, prog).Run()
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := uint32(res.ThreadInstr[0]), uint32(res.ThreadInstr[1])
	// Equal-time pair up front: the schedule designates blocked thread 0
	// first, so progress requires reordering with thread 1's epoch.
	epochs := []record.Epoch{
		{Time: 1, Thread: 0, Instr: t0, Index: 0},
		{Time: 1, Thread: 1, Instr: t1, Index: 1},
	}
	feed := NewReplayFeed()
	feed.Append(epochs[0])
	go func() {
		time.Sleep(20 * time.Millisecond)
		feed.Append(epochs[1])
		feed.CloseFeed()
	}()
	got, err := New(Config{Seed: 42, ReplayFeed: feed}, prog).Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got.Hung {
		t.Fatal("replay hung instead of waiting for the late equal-time epoch")
	}
	if got.Ops != res.Ops {
		t.Fatalf("replay committed %d ops, want %d", got.Ops, res.Ops)
	}
}

// TestReplayFeedIdleHandOff: after each Append, Idle closes only once the
// engine has taken the epoch and run it to its end; the feed keeps nothing
// it handed over, Len still counts every epoch appended, and OnEpoch indices
// stay absolute although the engine drops the epochs it has run.
func TestReplayFeedIdleHandOff(t *testing.T) {
	epochs := recordSchedule(t)
	prog, _ := feedProg()
	feed := NewReplayFeed()
	var last atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{
			Seed: 42, ReplayFeed: feed, OnEpoch: func(idx int) { last.Store(int64(idx)) },
		}, prog).Run()
		done <- err
	}()
	for k, ep := range epochs {
		feed.Append(ep)
		select {
		case <-feed.Idle():
		case err := <-done:
			t.Fatalf("engine ended before the feed did: %v", err)
		}
		if got := last.Load(); got != int64(k+1) {
			t.Fatalf("after epoch %d the engine is at epoch %d, want %d", k, got, k+1)
		}
		feed.mu.Lock()
		pending := len(feed.pending)
		feed.mu.Unlock()
		if pending != 0 || feed.Len() != k+1 {
			t.Fatalf("after epoch %d: %d epochs pending, Len %d", k, pending, feed.Len())
		}
	}
	feed.CloseFeed()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFeedAppendAfterClosePanics pins the misuse guard.
func TestFeedAppendAfterClosePanics(t *testing.T) {
	feed := NewReplayFeed()
	feed.CloseFeed()
	defer func() {
		if recover() == nil {
			t.Fatal("Append after CloseFeed did not panic")
		}
	}()
	feed.Append(record.Epoch{})
}
