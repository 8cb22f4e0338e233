package main

import (
	"fmt"
	"sync"
	"time"

	"cord/internal/server"
)

// This file is the coordinator's scheduler: one shared shard queue that
// every worker loop pulls from when it is idle, requeue of a dead worker's
// in-flight shard, the join-grace timer for a fleet that lost every worker,
// and the bookkeeping behind GET /v1/campaign/progress (PROTOCOL.md §7).
// Fast workers take more shards simply by asking more often. Correctness
// never depends on the schedule, because the checkpoint journal keyed by run
// identity is the merge point: however many times a shard is requeued or
// re-sent, its cells land under the same keys with the same bytes.

// workerState is one worker's slice of the scheduler.
type workerState struct {
	url      string
	inflight int    // 0 or 1: each worker loop runs one shard at a time
	done     int    // shards completed
	health   string // server.WorkerLive, WorkerSuspect or WorkerDead
}

// fleetPool is the shared scheduler state. All fields are guarded by mu; the
// cond wakes worker loops when work appears and the dispatcher when the
// campaign completes or aborts.
type fleetPool struct {
	mu   sync.Mutex
	cond *sync.Cond

	campaign  string
	fp        string
	joinGrace time.Duration

	workers map[string]*workerState
	live    int
	// queue is the pending work: idle worker loops take from the front,
	// and a dead worker's shard goes back to the front.
	queue    []shardWork
	inflight int
	requeued int

	cellsTotal int
	doneKeys   map[string]bool

	// graceTimer runs while a fleet that lost every worker has not
	// completed a shard since; graceExpired is set when it fires, and
	// lastLoss is the most recent worker death.
	graceTimer   *time.Timer
	graceExpired bool
	lastLoss     error
	failed       error
	interrupted  bool
}

func newFleetPool(campaign, fp string, joinGrace time.Duration, cellsTotal int, shards []shardWork) *fleetPool {
	p := &fleetPool{
		campaign:   campaign,
		fp:         fp,
		joinGrace:  joinGrace,
		workers:    make(map[string]*workerState),
		queue:      shards,
		cellsTotal: cellsTotal,
		doneKeys:   make(map[string]bool),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// doneLocked reports whether the campaign has finished: nothing queued and
// nothing in flight that could still be requeued.
func (p *fleetPool) doneLocked() bool {
	return len(p.queue) == 0 && p.inflight == 0
}

// addWorker registers (or revives) a worker and reports whether a worker
// loop should be started for it. A URL that is already live or suspect
// keeps its loop.
func (p *fleetPool) addWorker(url string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil || p.interrupted {
		return false
	}
	w := p.workers[url]
	if w != nil && w.health != server.WorkerDead {
		return false // already running
	}
	if w == nil {
		w = &workerState{url: url}
		p.workers[url] = w
	}
	w.health = server.WorkerLive
	p.live++
	return true
}

// candidate reports whether a listed URL is worth probing: unknown to the
// pool, or known dead (a restarted worker answering under its old URL).
// Anything live or suspect already has a loop.
func (p *fleetPool) candidate(url string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil || p.interrupted || p.doneLocked() {
		return false
	}
	w := p.workers[url]
	return w == nil || w.health == server.WorkerDead
}

// take blocks until the shared queue has a shard for the named worker, or
// until the campaign completes or aborts or the worker is dead (ok=false,
// and the loop exits). An idle worker keeps waiting while others have
// shards in flight: a death there puts work back on the queue.
func (p *fleetPool) take(url string) (shardWork, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	self := p.workers[url]
	for {
		if p.failed != nil || p.interrupted || p.doneLocked() || self.health == server.WorkerDead {
			return shardWork{}, false
		}
		if len(p.queue) > 0 {
			s := p.queue[0]
			p.queue = p.queue[1:]
			self.inflight++
			p.inflight++
			return s, true
		}
		p.cond.Wait()
	}
}

// completed retires one executed shard and restores the worker to live (a
// suspect that delivers is healthy again). A completed shard is what ends a
// join grace: a plan probe proves nothing about a worker's shards.
func (p *fleetPool) completed(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[url]
	w.health = server.WorkerLive
	w.done++
	w.inflight--
	p.inflight--
	p.stopGraceLocked()
	p.cond.Broadcast()
}

func (p *fleetPool) stopGraceLocked() {
	if p.graceTimer != nil {
		p.graceTimer.Stop()
		p.graceTimer = nil
	}
	p.graceExpired = false
}

// failGraceLocked fails the campaign with the grace diagnosis.
func (p *fleetPool) failGraceLocked() {
	if p.failed == nil && !p.interrupted && !p.doneLocked() {
		p.failed = fmt.Errorf("all workers lost and none joined within %v to complete a shard (%d shards outstanding); last: %w",
			p.joinGrace, len(p.queue), p.lastLoss)
	}
	p.cond.Broadcast()
}

// markSuspect flags a worker whose current request needed a transient
// retry: still live, and reported as suspect until a shard succeeds.
func (p *fleetPool) markSuspect(url string) {
	p.mu.Lock()
	if w := p.workers[url]; w != nil && w.health == server.WorkerLive {
		w.health = server.WorkerSuspect
	}
	p.mu.Unlock()
}

// workerDied removes a worker that exhausted its retry budget and puts its
// in-flight shard back at the front of the queue. If no worker is left, the
// campaign gives the fleet joinGrace to complete a shard again: a worker
// may (re)join meanwhile, but only a completed shard stops the timer, so a
// worker that answers plan probes and fails every shard cannot keep the
// campaign alive. Once the grace has expired, the campaign fails at once if
// no worker is live, or else at the next worker death: a live worker may
// still complete its shard, but a death shows the fleet is not recovering.
func (p *fleetPool) workerDied(url string, s shardWork, cause error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[url]
	w.health = server.WorkerDead
	w.inflight--
	p.inflight--
	p.live--
	s.origin = "requeue"
	p.queue = append([]shardWork{s}, p.queue...)
	p.requeued++
	p.lastLoss = cause
	switch {
	case p.graceExpired:
		p.failGraceLocked()
	case p.live == 0 && p.graceTimer == nil:
		var t *time.Timer
		t = time.AfterFunc(p.joinGrace, func() {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.graceTimer != t {
				return // a completed shard stopped this grace
			}
			p.graceTimer = nil
			p.graceExpired = true
			if p.live == 0 {
				p.failGraceLocked()
			}
		})
		p.graceTimer = t
	}
	p.cond.Broadcast()
}

// journaled records one merged cell key for progress accounting: a shard's
// cell as it lands, or on resume a cell already in the journal.
func (p *fleetPool) journaled(key string) {
	p.mu.Lock()
	p.doneKeys[key] = true
	p.mu.Unlock()
}

func (p *fleetPool) fail(err error) {
	p.mu.Lock()
	if p.failed == nil {
		p.failed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *fleetPool) interrupt() {
	p.mu.Lock()
	p.interrupted = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// waitDone blocks until the campaign is complete, failed, or interrupted
// with every in-flight shard drained, and returns the terminal error (nil on
// success; the caller maps interrupted to experiment.ErrInterrupted).
func (p *fleetPool) waitDone() (failed error, interrupted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !(p.failed != nil || p.interrupted || p.doneLocked()) || p.inflight > 0 {
		p.cond.Wait()
	}
	p.stopGraceLocked()
	return p.failed, p.interrupted
}

// snapshot renders the pool as the §7 progress resource.
func (p *fleetPool) snapshot() server.CampaignProgress {
	p.mu.Lock()
	defer p.mu.Unlock()
	prog := server.CampaignProgress{
		Campaign:       p.campaign,
		Fingerprint:    p.fp,
		CellsDone:      len(p.doneKeys),
		CellsTotal:     p.cellsTotal,
		ShardsRequeued: p.requeued,
	}
	for _, w := range p.workers {
		prog.Workers = append(prog.Workers, server.ProgressWorker{
			URL:            w.url,
			Health:         w.health,
			ShardsDone:     w.done,
			ShardsInFlight: w.inflight,
		})
	}
	return prog
}
