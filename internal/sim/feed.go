package sim

import (
	"sync"

	"cord/internal/record"
)

// ReplayFeed is an appendable epoch source for streaming replay: a producer
// (the service's online-detection ingest) appends epochs as they become
// final, while an engine configured with Config.ReplayFeed consumes them,
// blocking when it runs ahead of the stream. This is what turns the replay
// scheduler from "replay a complete log" into "replay the log while it is
// still arriving".
//
// Epochs must be appended in the global schedule order Log.Schedule (or
// record.EpochStream) produces: nondecreasing Time, ties ordered by Index.
// The engine's equal-time reordering (replayRecoverable) relies on the Time
// sequence being sorted to decide when no concurrent epoch can still arrive.
//
// Append copies the epochs, so producers may reuse their slices (the
// EpochStream release buffer, for instance) immediately. The feed holds only
// the epochs the engine has not taken yet: taking hands them over, so a
// long stream costs memory for one chunk, not for its whole history. One
// producer and one consuming engine is the supported topology; Append,
// CloseFeed and Idle may be called from any goroutine.
type ReplayFeed struct {
	mu      sync.Mutex
	pending []record.Epoch // appended, not yet taken by the engine
	n       int            // epochs appended in total
	closed  bool
	wake    chan struct{} // closed by the next Append or CloseFeed
	idle    chan struct{} // closed while the engine waits with nothing pending
	waiting bool          // idle is closed
}

// NewReplayFeed returns an empty, open feed.
func NewReplayFeed() *ReplayFeed {
	return &ReplayFeed{wake: make(chan struct{}), idle: make(chan struct{})}
}

// Append publishes more epochs to the consuming engine.
func (f *ReplayFeed) Append(eps ...record.Epoch) {
	if len(eps) == 0 {
		return
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		panic("sim: ReplayFeed.Append after CloseFeed")
	}
	f.pending = append(f.pending, eps...)
	f.n += len(eps)
	close(f.wake)
	f.wake = make(chan struct{})
	if f.waiting {
		f.idle, f.waiting = make(chan struct{}), false
	}
	f.mu.Unlock()
}

// CloseFeed declares end of stream: once the engine has consumed every
// appended epoch it proceeds to the end-of-schedule drain instead of waiting.
// CloseFeed is idempotent; Append after CloseFeed is a programming error and
// panics (the closed wake channel is gone, but guard explicitly).
func (f *ReplayFeed) CloseFeed() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.wake)
		f.wake = make(chan struct{})
	}
	f.mu.Unlock()
}

// Len returns the number of epochs appended so far (diagnostics).
func (f *ReplayFeed) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Idle returns a channel that is closed once the consuming engine has taken
// every epoch appended so far and waits for more. A producer that waits on
// it after an Append knows the engine has run as far as the feed allows. The
// channel never closes if the engine ends instead (or was never started),
// so wait on the engine's completion too.
func (f *ReplayFeed) Idle() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.idle
}

// take hands the pending epochs over to the engine, which then owns the
// slice, and returns the closed flag and a channel that closes on the next
// Append or CloseFeed. Taking nothing from an open feed means the engine is
// about to wait, which closes the Idle channel.
func (f *ReplayFeed) take() ([]record.Epoch, bool, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	eps := f.pending
	f.pending = nil
	if len(eps) == 0 && !f.closed && !f.waiting {
		close(f.idle)
		f.waiting = true
	}
	return eps, f.closed, f.wake
}
