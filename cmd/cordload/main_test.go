package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cord/internal/httpretry"
	"cord/internal/perf"
	"cord/internal/record"
)

// TestValidateFlags: load parameters must be rejected before the sweep
// starts hammering a server with nonsense.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		scale    int
		threads  int
		d        int
		retries  int
		retryCap time.Duration
		wantErr  bool
	}{
		{"defaults", 32, 1, 4, 16, 5, 5 * time.Second, false},
		{"minimal", 1, 1, 1, 1, 1, time.Millisecond, false},
		{"zero n", 0, 1, 4, 16, 5, 5 * time.Second, true},
		{"negative n", -5, 1, 4, 16, 5, 5 * time.Second, true},
		{"zero scale", 32, 0, 4, 16, 5, 5 * time.Second, true},
		{"zero threads", 32, 1, 0, 16, 5, 5 * time.Second, true},
		{"zero d", 32, 1, 4, 0, 5, 5 * time.Second, true},
		{"zero retries", 32, 1, 4, 16, 0, 5 * time.Second, true},
		{"zero retry cap", 32, 1, 4, 16, 5, 0, true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.n, tc.scale, tc.threads, tc.d, tc.retries, tc.retryCap)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFlags = %v, wantErr=%v", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunStageRetriesThrottling: a server that 429s every session once must
// still end the stage with every session OK, the pushback visible in the
// retry counter, and nothing counted as a hard error — unless the throttling
// outlives the attempt budget, which becomes exactly one error per session.
func TestRunStageRetriesThrottling(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(body)]++
		first := seen[string(body)] == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	policy := httpretry.Policy{Attempts: 3, Fallback: time.Millisecond, Cap: 10 * time.Millisecond}
	res := runStage(srv.Client(), srv.URL, 2, 6, policy, detectRequest{App: "fft", Seed: 1})
	if res.ok != 6 || res.errors != 0 {
		t.Fatalf("ok=%d errors=%d, want 6 ok and 0 errors", res.ok, res.errors)
	}
	if res.retries != 6 {
		t.Fatalf("retries=%d, want 6 (each session throttled once)", res.retries)
	}

	// A single-attempt policy turns the same throttling into hard errors.
	mu.Lock()
	seen = map[string]int{}
	mu.Unlock()
	res = runStage(srv.Client(), srv.URL, 1, 3, httpretry.Policy{Attempts: 1, Fallback: time.Millisecond, Cap: time.Millisecond}, detectRequest{App: "fft", Seed: 1})
	if res.ok != 0 || res.errors != 3 || res.retries != 0 {
		t.Fatalf("ok=%d errors=%d retries=%d, want 0/3/0 with no retry budget", res.ok, res.errors, res.retries)
	}
}

func TestParseSweep(t *testing.T) {
	got, err := parseSweep("1, 2,8")
	if err != nil {
		t.Fatalf("parseSweep: %v", err)
	}
	want := []int{1, 2, 8}
	if len(got) != len(want) {
		t.Fatalf("parseSweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSweep = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "  ", "0", "1,x", "1,,2", "-4"} {
		if _, err := parseSweep(bad); err == nil {
			t.Errorf("parseSweep(%q): expected error", bad)
		}
	}
}

// TestParseDuties: the -duty sweep list admits the full [0, 100] domain —
// zero (pure-ingest baseline) included — and rejects everything outside it.
func TestParseDuties(t *testing.T) {
	got, err := parseDuties("0, 50,100")
	if err != nil {
		t.Fatalf("parseDuties: %v", err)
	}
	want := []int{0, 50, 100}
	if len(got) != len(want) {
		t.Fatalf("parseDuties = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseDuties = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "x", "101", "-1", "50,,100", "50,101"} {
		if _, err := parseDuties(bad); err == nil {
			t.Errorf("parseDuties(%q): expected error", bad)
		}
	}
}

// TestSyntheticStreamDecodes: the generated wire bytes are a well-formed
// order log — they decode, declare the right entry count, and satisfy the
// per-thread unwrap invariants a real recording has (Schedule accepts them).
func TestSyntheticStreamDecodes(t *testing.T) {
	const frames, threads = 100_000, 4
	b := syntheticStream(frames, threads)
	l, err := record.DecodeFrom(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("DecodeFrom: %v", err)
	}
	if l.Len() != frames {
		t.Fatalf("decoded %d entries, want %d", l.Len(), frames)
	}
	if _, err := l.Schedule(threads); err != nil {
		t.Fatalf("synthetic stream violates order invariants: %v", err)
	}
}

// TestRunStreamStage: the stage drives n uploads, each delivering the whole
// body, and classifies 429 pushback as retries rather than errors.
func TestRunStreamStage(t *testing.T) {
	body := syntheticStream(1000, 4)
	var mu sync.Mutex
	var got []int
	throttleOnce := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		if throttleOnce {
			throttleOnce = false
			mu.Unlock()
			w.Header().Set("Retry-After", "0")
			http.Error(w, "slots busy", http.StatusTooManyRequests)
			return
		}
		got = append(got, len(b))
		mu.Unlock()
		w.Write([]byte(`{"schema":1}`))
	}))
	defer srv.Close()

	policy := httpretry.Policy{Attempts: 3, Fallback: time.Millisecond, Cap: 10 * time.Millisecond}
	p := streamParams{app: "fft", seed: 1, threads: 4, frames: 1000, chunk: 256}
	query := "/v1/stream?app=fft&seed=1&threads=4&verify=0"
	res := runStreamStage(srv.Client(), srv.URL, query, 2, 4, policy, p, body)
	if res.ok != 4 || res.errors != 0 || res.retries != 1 {
		t.Fatalf("ok=%d errors=%d retries=%d, want 4/0/1", res.ok, res.errors, res.retries)
	}
	for i, n := range got {
		if n != len(body) {
			t.Fatalf("upload %d delivered %d bytes, want %d", i, n, len(body))
		}
	}
}

// TestMergeStreamingPerf: merging creates a fresh artifact when none exists
// and preserves recorded benchmarks when one does.
func TestMergeStreamingPerf(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	s1 := &perf.StreamingPerf{Streams: 4, Sessions: 8, FramesPerSession: 1000, RecordsPerSec: 12345}
	if err := mergeStreamingPerf(path, s1); err != nil {
		t.Fatalf("merge into missing file: %v", err)
	}
	r, err := perf.Read(path)
	if err != nil || r.Streaming == nil || r.Streaming.RecordsPerSec != 12345 {
		t.Fatalf("fresh artifact: %+v err=%v", r, err)
	}

	r.Benchmarks = append(r.Benchmarks, perf.BenchResult{Name: "x/y", NsPerOp: 1})
	if err := perf.Write(path, r); err != nil {
		t.Fatal(err)
	}
	if err := mergeStreamingPerf(path, &perf.StreamingPerf{Streams: 2, RecordsPerSec: 99}); err != nil {
		t.Fatalf("merge into existing file: %v", err)
	}
	r2, err := perf.Read(path)
	if err != nil || len(r2.Benchmarks) != 1 || r2.Streaming.Streams != 2 {
		t.Fatalf("merged artifact lost rows: %+v err=%v", r2, err)
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.95); q != 0 {
		t.Fatalf("quantile(nil) = %v, want 0", q)
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 1.0); q != 10 {
		t.Fatalf("quantile(max) = %v, want 10", q)
	}
	if q := quantile(sorted, 0.0); q != 1 {
		t.Fatalf("quantile(min) = %v, want 1", q)
	}
}

// TestWatchProgress drives the -progress mode through its lifecycle: an
// in-flight poll, a completed campaign (exit 0), and a coordinator that
// vanishes after serving at least one poll (also exit 0 — the campaign ended
// and took its progress endpoint with it).
func TestWatchProgress(t *testing.T) {
	var polls int
	var ts *httptest.Server
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/campaign/progress" {
			http.NotFound(w, r)
			return
		}
		polls++
		done := 3
		if polls == 1 {
			done = 1
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"schema":1,"campaign":"bench-f","fingerprint":"f","cells_done":%d,"cells_total":3,"shards_requeued":0,"workers":[{"url":"http://a","health":"live","shards_done":2,"shards_in_flight":1}]}`, done)
	}))
	t.Cleanup(ts.Close)

	if code := watchProgress(ts.Client(), ts.URL, time.Millisecond); code != 0 {
		t.Fatalf("watchProgress on completing campaign = %d, want 0", code)
	}
	if polls < 2 {
		t.Fatalf("watched %d polls, want at least 2 (one in-flight, one complete)", polls)
	}

	// Coordinator vanishing after a successful poll reads as campaign end.
	var once sync.Once
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served := false
		once.Do(func() {
			served = true
			io.WriteString(w, `{"schema":1,"campaign":"c","fingerprint":"f","cells_done":0,"cells_total":9,"workers":[]}`)
		})
		if !served {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close() // simulate the process going away mid-poll
		}
	}))
	t.Cleanup(gone.Close)
	if code := watchProgress(gone.Client(), gone.URL, time.Millisecond); code != 0 {
		t.Fatalf("watchProgress on vanished coordinator = %d, want 0", code)
	}

	// A coordinator that never answers is a hard error.
	dead := httptest.NewServer(http.NotFoundHandler())
	client := dead.Client()
	dead.Close()
	if code := watchProgress(client, dead.URL, time.Millisecond); code != 1 {
		t.Fatalf("watchProgress on dead coordinator = %d, want 1", code)
	}
}
