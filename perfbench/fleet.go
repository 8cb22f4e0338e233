package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cord/internal/checkpoint"
	"cord/internal/experiment"
	"cord/internal/server"
)

// fleetShardRuns is cordbench's -shard-runs for the fleet workload. With
// one shard per application the makespan turns on where the coordinator
// places the longest application, and varied by up to 25% between
// campaigns on a 2-CPU host; two-run shards varied by 2%.
const fleetShardRuns = 2

// fleetSlowDelay is the fixed delay the benchmark adds in front of every
// /v1/campaign/shard request to one worker, so the fleet is heterogeneous
// and the coordinator's placement has something to balance.
const fleetSlowDelay = 100 * time.Millisecond

// fleetJournal is cordbench's journal file name inside -checkpoint <dir>.
const fleetJournal = "journal.cordckpt"

// fleetBench runs `cordbench -fig12 -injections 8 -workers ...` against
// in-process cordd workers, the last of them slowed. Its inputs do not
// depend on the seed: it always runs the golden campaign, because its check
// is byte identity with bench/BENCH_fig12.json, and which worker is slowed
// changes the makespan by several percent, so that stays fixed too.
type fleetBench struct {
	e       *env
	workers []*fleetWorker
	urls    string
	golden  []byte
	tr      atomic.Pointer[tracer]
	cur     atomic.Int64 // trace id of the running campaign
	ops     int
	lastDir string // the last campaign's scratch directory

	mu    sync.Mutex
	stats map[int64]*fleetOpStats // per traced campaign, by trace id
}

// fleetOpStats is what the worker wrappers saw of one traced campaign.
type fleetOpStats struct {
	runs, stolen, requeued, retries int
	cells                           []int // per worker: cells returned
}

type fleetWorker struct {
	idx    int
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	delay  time.Duration
}

func prepareFleet(e *env) (setupFunc, error) {
	return func() (bench, error) { return setupFleet(e) }, nil
}

func setupFleet(e *env) (bench, error) {
	golden, err := os.ReadFile(filepath.Join(e.root, "bench", experiment.ArtifactFileName("fig12")))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(e.cordbench); err != nil {
		return nil, fmt.Errorf("cordbench binary: %w", err)
	}
	b := &fleetBench{e: e, golden: golden, stats: map[int64]*fleetOpStats{}}
	var urls []string
	for i := 0; i < e.par; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.close()
			return nil, err
		}
		w := &fleetWorker{idx: i, srv: server.New(server.Config{Workers: 1}), served: make(chan struct{})}
		if i == e.par-1 {
			w.delay = fleetSlowDelay
		}
		w.hs = &http.Server{Handler: b.wrap(w)}
		go func() {
			defer close(w.served)
			w.hs.Serve(ln)
		}()
		b.workers = append(b.workers, w)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	b.urls = strings.Join(urls, ",")
	// Warm-up: every worker agrees on the campaign and executes a one-run
	// shard of it before the clock starts.
	o := fleetOptions()
	meta := o.Meta()
	plan, err := json.Marshal(server.CampaignPlanRequest{Campaign: "perfbench-warmup", Options: meta})
	if err != nil {
		b.close()
		return nil, err
	}
	shard, err := json.Marshal(server.CampaignShardRequest{Campaign: "perfbench-warmup", ShardID: "warmup",
		Fingerprint: o.Fingerprint(), Options: meta, Ranges: []experiment.ShardRange{{App: meta.Apps[0], Lo: 0, Hi: 1}}})
	if err != nil {
		b.close()
		return nil, err
	}
	for _, u := range urls {
		for _, call := range []struct {
			path string
			body []byte
		}{{"/v1/campaign/plan", plan}, {"/v1/campaign/shard", shard}} {
			resp, err := http.Post(u+call.path, "application/json", bytes.NewReader(call.body))
			if err != nil {
				b.close()
				return nil, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.close()
				return nil, fmt.Errorf("warm-up %s on %s: status %d", call.path, u, resp.StatusCode)
			}
		}
	}
	return b, nil
}

func fleetOptions() experiment.Options {
	return experiment.Options{Injections: campaignInjections, BaseSeed: goldenBaseSeed}
}

// statusRecorder remembers the status a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// wrap is the worker's front: the slow worker's delay, then, when traced,
// one span per shard request plus the runs, steals and 429s it carried.
func (b *fleetBench) wrap(w *fleetWorker) http.Handler {
	name := "server.shard.w" + strconv.Itoa(w.idx)
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/campaign/shard" {
			w.srv.ServeHTTP(rw, r)
			return
		}
		t := b.tr.Load()
		id, start := t.begin()
		time.Sleep(w.delay)
		if t == nil {
			w.srv.ServeHTTP(rw, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := &statusRecorder{ResponseWriter: rw, status: http.StatusOK}
		w.srv.ServeHTTP(rec, r)
		op := b.cur.Load()
		t.end(id, op, op, name, start)

		var req server.CampaignShardRequest
		_ = json.Unmarshal(body, &req) // the worker has already judged the body
		b.mu.Lock()
		defer b.mu.Unlock()
		st := b.stats[op]
		if st == nil {
			st = &fleetOpStats{cells: make([]int, len(b.workers))}
			b.stats[op] = st
		}
		switch rec.status {
		case http.StatusTooManyRequests:
			st.retries++
		case http.StatusOK:
			runs := experiment.ShardSpec{Ranges: req.Ranges}.Runs()
			apps := map[string]bool{}
			for _, rg := range req.Ranges {
				apps[rg.App] = true
			}
			st.runs += runs + len(apps) // each shard re-runs its apps' sizing runs
			st.cells[w.idx] += runs + len(apps)
			switch req.Origin {
			case "steal":
				st.stolen++
			case "requeue":
				st.requeued++
			}
		}
	})
}

func (b *fleetBench) clients() int { return 1 }

func (b *fleetBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range b.workers {
		w.hs.Shutdown(ctx)
		<-w.served
		w.srv.Shutdown(ctx)
	}
}

func (b *fleetBench) op(tr *tracer) (float64, error) {
	b.tr.Store(tr)
	b.ops++
	dir := filepath.Join(b.e.work, fmt.Sprintf("fleet-%d", b.ops))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	id, start := tr.begin()
	b.cur.Store(id)
	cmd := exec.Command(b.e.cordbench, "-fig12", "-injections", strconv.Itoa(campaignInjections), "-q",
		"-workers", b.urls, "-shard-runs", strconv.Itoa(fleetShardRuns),
		"-checkpoint", filepath.Join(dir, "ckpt"), "-json", dir)
	out, err := cmd.CombinedOutput()
	tr.end(id, id, 0, "cordbench.fleet", start)
	if err != nil {
		return 0, fmt.Errorf("cordbench: %v: %s", err, out)
	}
	got, err := os.ReadFile(filepath.Join(dir, experiment.ArtifactFileName("fig12")))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, b.golden) {
		return 0, fmt.Errorf("%w: fleet: BENCH_fig12.json differs from the golden", errCheck)
	}
	if b.lastDir != "" {
		os.RemoveAll(b.lastDir)
	}
	b.lastDir = dir
	meta := fleetOptions().Meta()
	return float64(len(meta.Apps) * (1 + meta.Injections)), nil
}

// inputs hands the checkpoint kernel the last campaign's journaled cells.
func (b *fleetBench) inputs() (panelInputs, error) {
	src, err := checkpoint.Open(filepath.Join(b.lastDir, "ckpt", fleetJournal))
	if err != nil {
		return panelInputs{}, err
	}
	defer src.Close()
	o := fleetOptions()
	meta := o.Meta()
	var cells []journalCell
	for i := range meta.Apps {
		keys := []string{o.DetectCountKey(i)}
		for j := 0; j < meta.Injections; j++ {
			keys = append(keys, o.DetectInjectKey(i, j))
		}
		for _, k := range keys {
			c := journalCell{key: k}
			if ok, err := src.Lookup(k, &c.data); err != nil || !ok {
				return panelInputs{}, fmt.Errorf("%w: fleet journal lacks %s (%v)", errCheck, k, err)
			}
			cells = append(cells, c)
		}
	}
	return panelInputs{cells: cells}, nil
}

// layers attributes each traced campaign's makespan to the workers' shard
// time (from the wrapper spans), the coordinator's journal appends, and the
// remainder: coordination that no layer accounts for.
func (b *fleetBench) layers(e *env, traced phase, p *panel, put func(string, float64)) error {
	tr := b.tr.Load()
	var shardMs []float64
	busy := map[int64][]float64{} // per campaign, per worker: shard ms
	for i := range b.workers {
		for _, s := range tr.named("server.shard.w" + strconv.Itoa(i)) {
			shardMs = append(shardMs, s.ms())
			if busy[s.Trace] == nil {
				busy[s.Trace] = make([]float64, len(b.workers))
			}
			busy[s.Trace][i] += s.ms()
		}
	}
	tail, _ := tailOf(shardMs)
	put("server.request_p50_ms", median(shardMs))
	put("server.request_tail_ms", tail)

	meta := fleetOptions().Meta()
	distinct := float64(len(meta.Apps) * (1 + meta.Injections))
	var pct [2][]float64
	var coord, useful, stolen, requeued, retries, unacc []float64
	for _, c := range tr.named("cordbench.fleet") {
		bw, st := busy[c.ID], b.stats[c.ID]
		if bw == nil || st == nil {
			continue
		}
		span := c.ms()
		busiest := 0
		for i := range bw {
			if i < len(pct) {
				pct[i] = append(pct[i], 100*bw[i]/span)
			}
			if bw[i] > bw[busiest] {
				busiest = i
			}
		}
		co := span - bw[busiest]
		coord = append(coord, 100*co/span)
		useful = append(useful, distinct/float64(st.runs))
		stolen = append(stolen, float64(st.stolen))
		requeued = append(requeued, float64(st.requeued))
		retries = append(retries, float64(st.retries))
		journal := float64(st.cells[busiest]) * p.appendUs / 1e3
		unacc = append(unacc, 100*(co-journal)/span)
	}
	put("cordbench.worker0_busy_pct", median(pct[0]))
	put("cordbench.worker1_busy_pct", median(pct[1]))
	put("cordbench.coordination_pct", median(coord))
	put("cordbench.useful_run_ratio", median(useful))
	put("cordbench.stolen", median(stolen))
	put("cordbench.requeued", median(requeued))
	put("httpretry.retries", median(retries))
	put("unaccounted_pct", median(unacc))
	return nil
}
