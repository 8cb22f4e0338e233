// Command cordload drives a running cordd with a concurrent-client sweep
// and reports throughput and latency per stage — the load-testing workflow
// of EXPERIMENTS.md. On the wire it speaks only the service's formats (JSON
// bodies and the PROTOCOL.md binary log), so it can be pointed at any cordd;
// the one in-process exception is -duty, which records a real order log with
// the engine so the online replay has a run to follow.
//
// Usage:
//
//	cordd -addr :8080 &
//	cordload -addr http://127.0.0.1:8080 -sweep 1,2,4,8 -n 32 -app fft
//	cordload -addr http://127.0.0.1:8080 -stream -sweep 1,2,4 -n 8 \
//	    -frames 200000 -perf-out bench/BENCH_perf.json
//
// Each stage issues -n detect sessions (seeds base, base+1, ...) from the
// stage's client count and prints wall-clock, requests/s and latency
// quantiles. A 429 is backpressure, not failure: the client honors the
// server's Retry-After hint (capped at -retry-cap) and retries the session
// up to -retries attempts, counting retries separately so pushback stays
// visible in the summary. The final section echoes the server's /metrics
// session counters.
//
// With -stream, the sweep drives POST /v1/stream instead: every session
// uploads a synthetic order log of -frames wire-format entries in chunked
// pieces (verify=0, so the measurement is pure ingest, not detection
// re-execution) and each stage reports sustained records/sec. -perf-out
// merges the best stage into a BENCH_perf.json perf-trajectory artifact as
// its "streaming" slice, preserving any benchmark rows already recorded.
//
// With -stream -duty "0,50,100", the sweep instead measures online race
// detection (PROTOCOL.md §4.7): a real order log is recorded in-process
// (the synthetic stream corresponds to no actual run, so the online replay
// would just diverge), then streamed with detect=online at each duty point.
// The duty=0 row is the ingest baseline; duty=100 prices full mid-stream
// detection. -perf-out records the sweep as the "streaming-online" slice.
//
// With -progress http://coordinator:9090, cordload instead follows a running
// distributed campaign: it polls the coordinator's GET /v1/campaign/progress
// resource (PROTOCOL.md §7, served by cordbench -progress-addr) every
// -progress-interval and prints one status line per poll — cells done, shard
// requeues, per-worker health — exiting 0 once the campaign reports
// complete (or the coordinator, its work done, goes away).
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"cord/internal/httpretry"
	"cord/internal/perf"
	"cord/internal/replay"
	"cord/internal/workload"
)

// detectRequest mirrors server.DetectRequest; cordload speaks the wire
// format only, so it can be built and pointed at any cordd without version
// coupling.
type detectRequest struct {
	App     string `json:"app"`
	Seed    uint64 `json:"seed"`
	Scale   int    `json:"scale,omitempty"`
	Threads int    `json:"threads,omitempty"`
	D       int    `json:"d,omitempty"`
}

// parseSweep parses a comma-separated list of client counts.
func parseSweep(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-sweep must name at least one client count")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-sweep entry %q: %v", part, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("-sweep entry %d: client counts must be at least 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// validateFlags rejects out-of-domain load parameters up front (exit 2 +
// usage), like every other cord binary.
func validateFlags(n, scale, threads, d, retries int, retryCap time.Duration) error {
	if n < 1 {
		return fmt.Errorf("-n must be at least 1")
	}
	if threads > 1<<16-1 {
		return fmt.Errorf("-threads must fit the wire format's 16-bit thread id")
	}
	if scale < 1 {
		return fmt.Errorf("-scale must be at least 1")
	}
	if threads < 1 {
		return fmt.Errorf("-threads must be at least 1")
	}
	if d < 1 {
		return fmt.Errorf("-d must be at least 1")
	}
	if retries < 1 {
		return fmt.Errorf("-retries must be at least 1 (the first attempt counts)")
	}
	if retryCap <= 0 {
		return fmt.Errorf("-retry-cap must be positive")
	}
	return nil
}

type stageResult struct {
	clients   int
	ok        int
	retries   int // 429 responses that were retried after Retry-After
	errors    int
	wall      time.Duration
	latencies []time.Duration
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "base URL of the cordd to load")
		app      = flag.String("app", "fft", "application for the detect sessions")
		seed     = flag.Uint64("seed", 1, "base seed; request i uses seed+i")
		scale    = flag.Int("scale", 1, "workload scale factor")
		threads  = flag.Int("threads", 4, "simulated threads")
		d        = flag.Int("d", 16, "CORD sync-read window D")
		n        = flag.Int("n", 32, "requests per sweep stage")
		sweep    = flag.String("sweep", "1,2,4,8", "comma-separated concurrent-client counts")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-request client timeout")
		retries  = flag.Int("retries", 5, "attempts per session before a 429 becomes a hard error")
		retryCap = flag.Duration("retry-cap", 5*time.Second, "upper bound on one Retry-After sleep")
		stream   = flag.Bool("stream", false, "drive POST /v1/stream sessions instead of /v1/detect")
		frames   = flag.Int("frames", 200000, "order-record frames per stream session (with -stream)")
		chunk    = flag.Int("chunk", 64<<10, "upload chunk size in bytes (with -stream)")
		duty     = flag.String("duty", "", "comma-separated duty percentages: sweep detect=online at each (with -stream)")
		perfOut  = flag.String("perf-out", "", "merge the best -stream stage into this BENCH_perf.json")

		progressURL = flag.String("progress", "", "poll this coordinator's GET /v1/campaign/progress until the campaign completes (PROTOCOL.md §7)")
		progressInt = flag.Duration("progress-interval", time.Second, "poll cadence for -progress")
	)
	flag.Parse()

	if *progressURL != "" {
		if *progressInt <= 0 {
			fmt.Fprintf(os.Stderr, "cordload: -progress-interval must be positive\n")
			flag.Usage()
			return 2
		}
		return watchProgress(&http.Client{Timeout: *timeout}, *progressURL, *progressInt)
	}

	if err := validateFlags(*n, *scale, *threads, *d, *retries, *retryCap); err != nil {
		fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
		flag.Usage()
		return 2
	}
	if *stream && (*frames < 1 || *chunk < 1) {
		fmt.Fprintf(os.Stderr, "cordload: -frames and -chunk must be at least 1\n")
		flag.Usage()
		return 2
	}
	stages, err := parseSweep(*sweep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
		flag.Usage()
		return 2
	}

	client := &http.Client{Timeout: *timeout}
	if _, err := fetch(client, *addr+"/healthz"); err != nil {
		fmt.Fprintf(os.Stderr, "cordload: server not healthy: %v\n", err)
		return 1
	}

	// Jittered per session key, so a stage's worth of throttled clients does
	// not re-dogpile the server on the same fallback schedule.
	policy := httpretry.Policy{Attempts: *retries, Fallback: 250 * time.Millisecond, Cap: *retryCap, Jitter: 0.5}
	if *stream {
		p := streamParams{
			app: *app, seed: *seed, scale: *scale, threads: *threads, frames: *frames, chunk: *chunk,
		}
		if *duty != "" {
			duties, err := parseDuties(*duty)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
				flag.Usage()
				return 2
			}
			return runOnlineSweep(client, *addr, stages, *n, policy, p, duties, *perfOut)
		}
		return runStreamSweep(client, *addr, stages, *n, policy, p, *perfOut)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "clients\tok\tretries\terrors\twall\treq/s\tp50\tp95\tmax")
	for _, c := range stages {
		res := runStage(client, *addr, c, *n, policy, detectRequest{
			App: *app, Seed: *seed, Scale: *scale, Threads: *threads, D: *d,
		})
		sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
		rps := float64(res.ok) / res.wall.Seconds()
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2fs\t%.1f\t%s\t%s\t%s\n",
			res.clients, res.ok, res.retries, res.errors, res.wall.Seconds(), rps,
			quantile(res.latencies, 0.50).Round(time.Millisecond),
			quantile(res.latencies, 0.95).Round(time.Millisecond),
			quantile(res.latencies, 1.00).Round(time.Millisecond))
		w.Flush()
		if res.errors > 0 {
			fmt.Fprintf(os.Stderr, "cordload: stage %d finished with %d hard errors\n", c, res.errors)
		}
	}

	metrics, err := fetch(client, *addr+"/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordload: fetching /metrics: %v\n", err)
		return 1
	}
	fmt.Println("\nserver /metrics after the sweep:")
	os.Stdout.Write(metrics)
	return 0
}

// runStage issues n detect sessions from c concurrent clients; request i
// uses seed base+i so every session is distinct work. 429 responses retry
// under the stage's policy; a session that stays throttled through every
// attempt counts as one hard error.
func runStage(client *http.Client, addr string, c, n int, policy httpretry.Policy, base detectRequest) stageResult {
	res := stageResult{clients: c}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < c; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				req := base
				req.Seed += uint64(i)
				body, _ := json.Marshal(req)
				for attempt := 1; ; attempt++ {
					t0 := time.Now()
					resp, err := client.Post(addr+"/v1/detect", "application/json", bytes.NewReader(body))
					lat := time.Since(t0)
					throttled := false
					var sleep time.Duration
					mu.Lock()
					switch {
					case err != nil:
						res.errors++
					case resp.StatusCode == http.StatusOK:
						res.ok++
						res.latencies = append(res.latencies, lat)
					case resp.StatusCode == http.StatusTooManyRequests && attempt < policy.Attempts:
						res.retries++
						throttled = true
						sleep = policy.RetryAfterKeyed(resp.Header.Get("Retry-After"),
							fmt.Sprintf("%s|%d", addr, i), attempt)
					default: // non-429 failure, or throttled out of attempts
						res.errors++
					}
					mu.Unlock()
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					if !throttled {
						break
					}
					time.Sleep(sleep)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// parseDuties parses the -duty list: distinct integers in [0, 100].
func parseDuties(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-duty entry %q: %v", part, err)
		}
		if n < 0 || n > 100 {
			return nil, fmt.Errorf("-duty entry %d: duty percentages live in [0, 100]", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-duty must name at least one percentage")
	}
	return out, nil
}

// streamParams configures one streaming-throughput sweep.
type streamParams struct {
	app     string
	seed    uint64
	scale   int
	threads int
	frames  int
	chunk   int
}

// syntheticStream builds one wire-format order log (PROTOCOL.md §2) of the
// requested frame count: threads take turns, each thread's clock advances by
// one per round, so the stream satisfies the per-thread ordering invariants
// any real recording has. Built once per sweep and shared read-only by every
// session.
func syntheticStream(frames, threads int) []byte {
	b := make([]byte, 16+8*frames)
	copy(b[0:4], "CORD")
	binary.LittleEndian.PutUint32(b[4:8], 1)
	binary.LittleEndian.PutUint64(b[8:16], uint64(frames))
	off := 16
	for i := 0; i < frames; i++ {
		binary.LittleEndian.PutUint16(b[off:], uint16(i/threads))   // clock
		binary.LittleEndian.PutUint16(b[off+2:], uint16(i%threads)) // thread
		binary.LittleEndian.PutUint32(b[off+4:], 100)               // instr
		off += 8
	}
	return b
}

// chunkReader hides the body's length (forcing chunked transfer encoding)
// and caps every Read at n bytes, so the server ingests the session the way
// a live recorder would deliver it: incrementally.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

type streamStageResult struct {
	streams   int
	ok        int
	retries   int
	errors    int
	wall      time.Duration
	latencies []time.Duration
}

// runStreamSweep drives the sustained-throughput mode: each stage runs n
// /v1/stream sessions from c concurrent clients and reports records/sec —
// ingested frames per second of stage wall-clock. The best stage is merged
// into the BENCH_perf.json artifact when -perf-out names one.
func runStreamSweep(client *http.Client, addr string, stages []int, n int, policy httpretry.Policy, p streamParams, perfOut string) int {
	body := syntheticStream(p.frames, p.threads)
	fmt.Printf("streaming %d sessions/stage, %d frames (%d bytes) each, chunk %d\n",
		n, p.frames, len(body), p.chunk)

	query := fmt.Sprintf("/v1/stream?app=%s&seed=%d&threads=%d&verify=0", p.app, p.seed, p.threads)
	var best *perf.StreamingPerf
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "streams\tok\tretries\terrors\twall\trecords/s\tp50\tp95\tmax")
	exit := 0
	for _, c := range stages {
		res := runStreamStage(client, addr, query, c, n, policy, p, body)
		sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
		recs := float64(res.ok) * float64(p.frames) / res.wall.Seconds()
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2fs\t%.0f\t%s\t%s\t%s\n",
			res.streams, res.ok, res.retries, res.errors, res.wall.Seconds(), recs,
			quantile(res.latencies, 0.50).Round(time.Millisecond),
			quantile(res.latencies, 0.95).Round(time.Millisecond),
			quantile(res.latencies, 1.00).Round(time.Millisecond))
		w.Flush()
		if res.errors > 0 {
			fmt.Fprintf(os.Stderr, "cordload: stage %d finished with %d hard errors\n", c, res.errors)
			exit = 1
		}
		if res.ok > 0 && (best == nil || recs > best.RecordsPerSec) {
			best = &perf.StreamingPerf{
				Streams:          c,
				Sessions:         res.ok,
				FramesPerSession: p.frames,
				RecordsPerSec:    recs,
				WallClockMs:      float64(res.wall) / float64(time.Millisecond),
			}
		}
	}

	metrics, err := fetch(client, addr+"/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordload: fetching /metrics: %v\n", err)
		return 1
	}
	fmt.Println("\nserver /metrics after the sweep:")
	os.Stdout.Write(metrics)

	if perfOut != "" {
		if best == nil {
			fmt.Fprintf(os.Stderr, "cordload: no successful stage; not touching %s\n", perfOut)
			return 1
		}
		if err := mergeStreamingPerf(perfOut, best); err != nil {
			fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
			return 1
		}
		fmt.Printf("\nrecorded %.0f records/sec (streams=%d) into %s\n",
			best.RecordsPerSec, best.Streams, perfOut)
	}
	return exit
}

// runStreamStage uploads n copies of one stream body from c concurrent
// clients against the given /v1/stream query. 429 pushback (all stream slots
// busy) retries under the same policy the detect sweep uses.
func runStreamStage(client *http.Client, addr, query string, c, n int, policy httpretry.Policy, p streamParams, body []byte) streamStageResult {
	res := streamStageResult{streams: c}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < c; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				for attempt := 1; ; attempt++ {
					t0 := time.Now()
					resp, err := client.Post(addr+query, "application/octet-stream",
						&chunkReader{r: bytes.NewReader(body), n: p.chunk})
					lat := time.Since(t0)
					throttled := false
					var sleep time.Duration
					mu.Lock()
					switch {
					case err != nil:
						res.errors++
					case resp.StatusCode == http.StatusOK:
						res.ok++
						res.latencies = append(res.latencies, lat)
					case resp.StatusCode == http.StatusTooManyRequests && attempt < policy.Attempts:
						res.retries++
						throttled = true
						sleep = policy.RetryAfterKeyed(resp.Header.Get("Retry-After"),
							fmt.Sprintf("%s|%d", addr, i), attempt)
					default:
						res.errors++
					}
					mu.Unlock()
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					if !throttled {
						break
					}
					time.Sleep(sleep)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// recordedStream records a real order log in-process (the engine with a
// recording CORD detector, the exact configuration /v1/detect re-executes)
// and returns its wire bytes plus the frame count. Online replay needs a log
// that corresponds to an actual run; the synthetic stream does not.
func recordedStream(appName string, seed uint64, scale, threads int) ([]byte, int, error) {
	app, err := workload.ByName(appName)
	if err != nil {
		return nil, 0, err
	}
	out, err := replay.RecordAndReplay(app.Build(scale, threads), replay.Options{Seed: seed, Jitter: 7})
	if err != nil {
		return nil, 0, err
	}
	if !out.Match {
		return nil, 0, fmt.Errorf("recording fixture: %s", out.Mismatch)
	}
	var buf bytes.Buffer
	if err := out.Log.EncodeTo(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), out.Log.Len(), nil
}

// runOnlineSweep measures detect=online throughput at each duty point: one
// recorded fixture, streamed n times per stage per duty with the online
// replay following along. Every duty's best stage lands in the report, so
// the artifact shows how throughput scales with detection coverage.
func runOnlineSweep(client *http.Client, addr string, stages []int, n int, policy httpretry.Policy, p streamParams, duties []int, perfOut string) int {
	body, frames, err := recordedStream(p.app, p.seed, p.scale, p.threads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
		return 1
	}
	fmt.Printf("online sweep: %d sessions/stage, recorded fixture %d frames (%d bytes), chunk %d, duties %v\n",
		n, frames, len(body), p.chunk, duties)

	var rows []perf.OnlineDutyPerf
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "duty\tstreams\tok\tretries\terrors\twall\trecords/s\tp50\tp95\tmax")
	exit := 0
	for _, duty := range duties {
		query := fmt.Sprintf("/v1/stream?app=%s&seed=%d&scale=%d&threads=%d&verify=0&detect=online&duty=%d",
			p.app, p.seed, p.scale, p.threads, duty)
		var best *perf.OnlineDutyPerf
		for _, c := range stages {
			res := runStreamStage(client, addr, query, c, n, policy, p, body)
			sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
			recs := float64(res.ok) * float64(frames) / res.wall.Seconds()
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.2fs\t%.0f\t%s\t%s\t%s\n",
				duty, res.streams, res.ok, res.retries, res.errors, res.wall.Seconds(), recs,
				quantile(res.latencies, 0.50).Round(time.Millisecond),
				quantile(res.latencies, 0.95).Round(time.Millisecond),
				quantile(res.latencies, 1.00).Round(time.Millisecond))
			w.Flush()
			if res.errors > 0 {
				fmt.Fprintf(os.Stderr, "cordload: duty %d stage %d finished with %d hard errors\n", duty, c, res.errors)
				exit = 1
			}
			if res.ok > 0 && (best == nil || recs > best.RecordsPerSec) {
				best = &perf.OnlineDutyPerf{
					Duty:             duty,
					Streams:          c,
					Sessions:         res.ok,
					FramesPerSession: frames,
					RecordsPerSec:    recs,
					WallClockMs:      float64(res.wall) / float64(time.Millisecond),
				}
			}
		}
		if best != nil {
			rows = append(rows, *best)
		}
	}

	metrics, err := fetch(client, addr+"/metrics")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cordload: fetching /metrics: %v\n", err)
		return 1
	}
	fmt.Println("\nserver /metrics after the sweep:")
	os.Stdout.Write(metrics)

	if perfOut != "" {
		if len(rows) != len(duties) {
			fmt.Fprintf(os.Stderr, "cordload: only %d of %d duty points succeeded; not touching %s\n",
				len(rows), len(duties), perfOut)
			return 1
		}
		if err := mergeOnlinePerf(perfOut, rows); err != nil {
			fmt.Fprintf(os.Stderr, "cordload: %v\n", err)
			return 1
		}
		fmt.Printf("\nrecorded %d-point duty sweep into %s\n", len(rows), perfOut)
	}
	return exit
}

// mergeOnlinePerf sets the streaming-online slice of the perf-trajectory
// artifact, preserving everything else already recorded.
func mergeOnlinePerf(path string, rows []perf.OnlineDutyPerf) error {
	r, err := perf.Read(path)
	if errors.Is(err, fs.ErrNotExist) {
		r = perf.NewReport()
	} else if err != nil {
		return err
	}
	r.StreamingOnline = rows
	return perf.Write(path, r)
}

// mergeStreamingPerf sets the streaming slice of the perf-trajectory
// artifact, preserving benchmark and campaign rows if the file already
// holds a readable report (a missing file starts a fresh one).
func mergeStreamingPerf(path string, s *perf.StreamingPerf) error {
	r, err := perf.Read(path)
	if errors.Is(err, fs.ErrNotExist) {
		r = perf.NewReport()
	} else if err != nil {
		return err
	}
	r.Streaming = s
	return perf.Write(path, r)
}

// progressReport and progressWorker mirror the coordinator's §7 progress
// resource on the wire, like detectRequest does for /v1/detect: cordload
// stays a pure wire client.
type progressReport struct {
	Schema         int              `json:"schema"`
	Campaign       string           `json:"campaign"`
	Fingerprint    string           `json:"fingerprint"`
	CellsDone      int              `json:"cells_done"`
	CellsTotal     int              `json:"cells_total"`
	ShardsRequeued int              `json:"shards_requeued"`
	Workers        []progressWorker `json:"workers"`
}

type progressWorker struct {
	URL            string `json:"url"`
	Health         string `json:"health"`
	ShardsDone     int    `json:"shards_done"`
	ShardsInFlight int    `json:"shards_in_flight"`
}

// watchProgress polls a coordinator's campaign-progress resource until the
// campaign reports every cell done. The coordinator serves the resource only
// while it dispatches, so once at least one poll has succeeded, a vanished
// endpoint means the campaign ended — reported as such, exit 0. A coordinator
// that never answers is exit 1.
func watchProgress(client *http.Client, base string, interval time.Duration) int {
	url := strings.TrimRight(base, "/")
	if !strings.HasSuffix(url, "/v1/campaign/progress") {
		url += "/v1/campaign/progress"
	}
	seen := false
	for {
		b, err := fetch(client, url)
		if err != nil {
			if seen {
				fmt.Printf("coordinator at %s gone; campaign ended\n", base)
				return 0
			}
			fmt.Fprintf(os.Stderr, "cordload: polling %s: %v\n", url, err)
			return 1
		}
		var p progressReport
		if err := json.Unmarshal(b, &p); err != nil {
			fmt.Fprintf(os.Stderr, "cordload: unparsable progress from %s: %v\n", url, err)
			return 1
		}
		if !seen {
			fmt.Printf("campaign %s (fingerprint %s): %d cells\n", p.Campaign, p.Fingerprint, p.CellsTotal)
			seen = true
		}
		healths := map[string]int{}
		for _, w := range p.Workers {
			healths[w.Health]++
		}
		fmt.Printf("%d/%d cells  workers live=%d suspect=%d dead=%d  requeued=%d\n",
			p.CellsDone, p.CellsTotal, healths["live"], healths["suspect"], healths["dead"],
			p.ShardsRequeued)
		if p.CellsTotal > 0 && p.CellsDone >= p.CellsTotal {
			fmt.Println("campaign complete")
			return 0
		}
		time.Sleep(interval)
	}
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}
