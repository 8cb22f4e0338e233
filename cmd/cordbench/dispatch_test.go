package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cord/internal/checkpoint"
	"cord/internal/experiment"
	"cord/internal/httpretry"
	"cord/internal/server"
	"cord/internal/workload"
)

// testPolicy keeps worker-death failover fast: real deployments use
// fleetRetryPolicy's second-scale backoff, tests cannot afford it.
var testPolicy = httpretry.Policy{Attempts: 3, Fallback: time.Millisecond, Cap: 5 * time.Millisecond}

// testDispatch runs fleetDispatch against a static worker list with the
// fast test retry policy.
func testDispatch(opts experiment.Options, urls []string, shardRuns int, client *http.Client) error {
	return fleetDispatch(opts, fixedFleet(urls), fleetConfig{
		ShardRuns: shardRuns,
		Client:    client,
		Policy:    testPolicy,
	})
}

// waitOrError blocks until ch closes; after 30s it reports what never
// happened and returns, so a broken schedule fails instead of hanging.
func waitOrError(t *testing.T, ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Error(what)
	}
}

// fleetTestOptions is a campaign small enough to dispatch many times in a
// test yet wide enough to shard across apps.
func fleetTestOptions(t *testing.T) experiment.Options {
	t.Helper()
	fft, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	lu, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	return experiment.Options{
		BaseSeed:   7,
		Injections: 4,
		Apps:       []workload.App{fft, lu},
		Procs:      2,
	}
}

func openTestJournal(t *testing.T) *checkpoint.Journal {
	t.Helper()
	jl, err := checkpoint.Open(filepath.Join(t.TempDir(), journalName))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// newWorker starts a real cordd worker over httptest.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{Workers: 2}))
	t.Cleanup(ts.Close)
	return ts
}

// newSlowWorker starts a real worker whose shard responses are delayed, so
// any faster peer pulls more shards from the shared queue than it does.
func newSlowWorker(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	backend := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			time.Sleep(delay)
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// registerWorker announces a worker URL to a §7 registry with a TTL that
// outlives any test.
func registerWorker(t *testing.T, client *http.Client, registry, worker string) {
	t.Helper()
	body, err := json.Marshal(server.FleetRegisterRequest{URL: worker, TTLSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(registry+"/v1/fleet/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registering %s: status %d", worker, resp.StatusCode)
	}
}

func TestParseWorkers(t *testing.T) {
	urls, err := parseWorkers(" http://a:8080/ ,https://b")
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] != "http://a:8080" || urls[1] != "https://b" {
		t.Fatalf("parseWorkers = %v", urls)
	}
	for _, bad := range []string{"", "http://a,,http://b", "ftp://a", "localhost:8080"} {
		if _, err := parseWorkers(bad); err == nil {
			t.Errorf("parseWorkers(%q) accepted", bad)
		}
	}
}

func TestBuildShards(t *testing.T) {
	meta := experiment.CampaignMeta{Apps: []string{"fft", "lu"}, Injections: 5}
	shards := buildShards(meta, 2)
	var got []string
	runs := 0
	for _, s := range shards {
		got = append(got, s.id)
		runs += s.runs
	}
	want := []string{"fft.0.2", "fft.2.4", "fft.4.5", "lu.0.2", "lu.2.4", "lu.4.5"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("shard ids = %v, want %v", got, want)
	}
	if runs != 10 {
		t.Fatalf("total shard runs = %d, want 10", runs)
	}
}

// TestFleetDispatchEquivalence is the acceptance property end to end: a
// campaign dispatched over two workers, merged through the journal, and
// aggregated by the unchanged RunDetection is byte-identical to a direct
// local run — and simulates nothing locally (every run is a journal hit).
func TestFleetDispatchEquivalence(t *testing.T) {
	opts := fleetTestOptions(t)
	w1, w2 := newWorker(t), newWorker(t)

	jl := openTestJournal(t)
	dopts := opts
	dopts.Checkpoint = jl
	err := testDispatch(dopts, []string{w1.URL, w2.URL}, 3, w1.Client())
	if err != nil {
		t.Fatalf("fleetDispatch: %v", err)
	}

	fleetRes, err := experiment.RunDetection(dopts)
	if err != nil {
		t.Fatalf("aggregating fleet journal: %v", err)
	}
	wantHits := len(opts.Apps) * (1 + opts.Injections)
	if jl.Hits() != wantHits {
		t.Fatalf("aggregation hit the journal %d times, want %d (a miss means a run was silently re-simulated locally)", jl.Hits(), wantHits)
	}

	directRes, err := experiment.RunDetection(opts)
	if err != nil {
		t.Fatalf("direct campaign: %v", err)
	}
	fleetJSON, err := json.Marshal(fleetRes)
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := json.Marshal(directRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetJSON, directJSON) {
		t.Fatalf("fleet-dispatched results differ from a direct run:\nfleet:  %s\ndirect: %s", fleetJSON, directJSON)
	}
}

// TestFleetDispatchWorkerDeathReshards kills one worker mid-campaign (it
// starts failing every shard after its first) and requires the dispatch to
// finish on the survivor with a complete journal.
func TestFleetDispatchWorkerDeathReshards(t *testing.T) {
	opts := fleetTestOptions(t)

	// The dying worker answers its plan probe and first shard from a real
	// server, then fails everything — indistinguishable on the wire from a
	// worker that crashed after one shard. died closes at its second shard
	// request.
	var shardsSeen atomic.Int64
	died := make(chan struct{})
	backend := server.New(server.Config{Workers: 2})
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			if n := shardsSeen.Add(1); n > 1 {
				if n == 2 {
					close(died)
				}
				http.Error(w, "worker lost", http.StatusInternalServerError)
				return
			}
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	// The healthy worker holds every shard until the dying worker has been
	// asked for its second, so it cannot drain the campaign first and the
	// death is always exercised.
	healthySrv := server.New(server.Config{Workers: 2})
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			select {
			case <-died:
			case <-time.After(30 * time.Second):
				t.Error("the dying worker was never asked for a second shard")
			}
		}
		healthySrv.ServeHTTP(w, r)
	}))
	t.Cleanup(healthy.Close)

	jl := openTestJournal(t)
	dopts := opts
	dopts.Checkpoint = jl
	err := testDispatch(dopts, []string{healthy.URL, dying.URL}, 1, healthy.Client())
	if err != nil {
		t.Fatalf("fleetDispatch with a dying worker: %v", err)
	}
	if got := shardsSeen.Load(); got < 2 {
		t.Fatalf("dying worker saw %d shard requests; the test never exercised its death", got)
	}

	// The journal must still cover the whole campaign.
	meta := dopts.Meta()
	for appIdx := range meta.Apps {
		if !jl.Has(dopts.DetectCountKey(appIdx)) {
			t.Fatalf("app %d count cell missing after re-shard", appIdx)
		}
		for i := 0; i < meta.Injections; i++ {
			if !jl.Has(dopts.DetectInjectKey(appIdx, i)) {
				t.Fatalf("app %d run %d missing after re-shard", appIdx, i)
			}
		}
	}
	// The rescue is visible on the wire: the survivor executed shards that
	// declared origin=requeue, which its /metrics fleet block counts.
	if got := healthySrv.Metrics().Fleet.ShardsRequeued; got == 0 {
		t.Fatal("survivor executed no origin=requeue shards (fleet.shards_requeued = 0)")
	}
}

// TestFleetDispatchRetryAfter verifies the 429 path: a worker that throttles
// each shard's first attempt is retried (honoring Retry-After) rather than
// declared dead.
func TestFleetDispatchRetryAfter(t *testing.T) {
	opts := fleetTestOptions(t)
	opts.Injections = 2
	var throttled atomic.Int64
	firstAttempt := make(map[string]bool)
	backend := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			var req server.CampaignShardRequest
			body, _ := io.ReadAll(r.Body)
			_ = json.Unmarshal(body, &req)
			if !firstAttempt[req.ShardID] {
				firstAttempt[req.ShardID] = true
				throttled.Add(1)
				w.Header().Set("Retry-After", "0")
				http.Error(w, `{"code":"queue_full"}`, http.StatusTooManyRequests)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	jl := openTestJournal(t)
	dopts := opts
	dopts.Checkpoint = jl
	if err := testDispatch(dopts, []string{ts.URL}, 1, ts.Client()); err != nil {
		t.Fatalf("fleetDispatch through 429s: %v", err)
	}
	if throttled.Load() == 0 {
		t.Fatal("the throttling path was never exercised")
	}
}

// TestFleetDispatchFingerprintSkew: a worker whose plan fingerprint
// disagrees must abort the dispatch — merging its cells would corrupt the
// campaign silently.
func TestFleetDispatchFingerprintSkew(t *testing.T) {
	opts := fleetTestOptions(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(server.CampaignPlanResponse{
			Schema:      server.SchemaVersion,
			Fingerprint: "deadbeefdeadbeef",
		})
	}))
	t.Cleanup(ts.Close)

	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	err := testDispatch(dopts, []string{ts.URL}, 2, ts.Client())
	if err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Fatalf("fingerprint skew not fatal: %v", err)
	}
}

// TestFleetDispatchBadPlanIsFatal: a worker that 400s the plan (e.g. the
// configuration is out of its request domain) is a campaign problem, not a
// worker problem — no point failing over.
func TestFleetDispatchBadPlanIsFatal(t *testing.T) {
	opts := fleetTestOptions(t)
	opts.Injections = server.MaxInjections + 1
	ts := newWorker(t)
	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	err := testDispatch(dopts, []string{ts.URL}, 2, ts.Client())
	if err == nil || !strings.Contains(err.Error(), "rejected the campaign plan") {
		t.Fatalf("bad plan not fatal: %v", err)
	}
}

// TestFleetDispatchAllWorkersUnreachable: with no usable worker the
// dispatch fails up front instead of hanging.
func TestFleetDispatchAllWorkersUnreachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	client := dead.Client()
	dead.Close() // nothing is listening anymore

	opts := fleetTestOptions(t)
	opts.Checkpoint = openTestJournal(t)
	err := testDispatch(opts, []string{dead.URL}, 2, client)
	if err == nil || !strings.Contains(err.Error(), "none of the 1 workers is usable") {
		t.Fatalf("unreachable fleet not fatal: %v", err)
	}
}

// TestFleetDispatchResumeSkipsJournaledShards: a fully journaled campaign
// dispatches zero shards (the -resume fast path).
func TestFleetDispatchResumeSkipsJournaledShards(t *testing.T) {
	opts := fleetTestOptions(t)
	jl := openTestJournal(t)

	// Journal the whole campaign locally first.
	local := opts
	local.Checkpoint = jl
	if _, err := experiment.RunDetection(local); err != nil {
		t.Fatal(err)
	}

	var shardPosts atomic.Int64
	backend := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			shardPosts.Add(1)
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	if err := testDispatch(local, []string{ts.URL}, 2, ts.Client()); err != nil {
		t.Fatalf("fleetDispatch over a complete journal: %v", err)
	}
	if n := shardPosts.Load(); n != 0 {
		t.Fatalf("complete journal still dispatched %d shards", n)
	}
}

// TestFleetDispatchFastWorkerDrainsQueue: with one shared queue a fast
// worker takes more shards simply by asking more often. The schedule is
// fixed without sleeps: the fast worker's shard requests wait until the
// slow worker holds its first shard, and that shard is released only once
// the fast worker has answered every other one. So the fast worker must
// execute all shards but one, and the journal must cover the campaign.
func TestFleetDispatchFastWorkerDrainsQueue(t *testing.T) {
	opts := fleetTestOptions(t)
	opts.Injections = 6 // 12 single-run shards across the two apps
	total := int64(len(opts.Apps) * opts.Injections)

	slowHolds := make(chan struct{}) // the slow worker has its first shard
	release := make(chan struct{})   // the fast worker has answered the rest
	var fastDone, slowSeen atomic.Int64
	fastBackend := server.New(server.Config{Workers: 2})
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			fastBackend.ServeHTTP(w, r)
			return
		}
		waitOrError(t, slowHolds, "the slow worker was never sent a shard")
		fastBackend.ServeHTTP(w, r)
		if fastDone.Add(1) == total-1 {
			close(release)
		}
	}))
	t.Cleanup(fast.Close)
	slowBackend := server.New(server.Config{Workers: 2})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") && slowSeen.Add(1) == 1 {
			close(slowHolds)
			waitOrError(t, release, "the fast worker never answered every other shard")
		}
		slowBackend.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	if err := testDispatch(dopts, []string{slow.URL, fast.URL}, 1, fast.Client()); err != nil {
		t.Fatalf("fleetDispatch with a slow worker: %v", err)
	}
	if got := fastDone.Load(); got != total-1 {
		t.Fatalf("fast worker executed %d shards, want %d (all but the slow worker's one)", got, total-1)
	}
	if got := slowSeen.Load(); got != 1 {
		t.Fatalf("slow worker was sent %d shard requests, want 1", got)
	}
	meta := dopts.Meta()
	for appIdx := range meta.Apps {
		if !dopts.Checkpoint.Has(dopts.DetectCountKey(appIdx)) {
			t.Fatalf("app %d count cell missing", appIdx)
		}
		for i := 0; i < meta.Injections; i++ {
			if !dopts.Checkpoint.Has(dopts.DetectInjectKey(appIdx, i)) {
				t.Fatalf("app %d run %d missing", appIdx, i)
			}
		}
	}
}

// TestFleetDispatchRegistryLateJoiner resolves the fleet from a §7 registry:
// the campaign starts on one slow worker, a second worker registers while it
// runs, and the membership poll must probe the joiner and put it to work.
func TestFleetDispatchRegistryLateJoiner(t *testing.T) {
	opts := fleetTestOptions(t) // 8 single-run shards
	registry := newWorker(t)
	slow := newSlowWorker(t, 30*time.Millisecond)

	var joinerShards atomic.Int64
	joinerBackend := server.New(server.Config{Workers: 2})
	joiner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			joinerShards.Add(1)
		}
		joinerBackend.ServeHTTP(w, r)
	}))
	t.Cleanup(joiner.Close)

	registerWorker(t, registry.Client(), registry.URL, slow.URL)
	// The joiner announces itself a few slow shards into the campaign (a
	// raw POST: t.Fatal is not allowed off the test goroutine — if it fails,
	// the joinerShards assertion below reports it).
	go func() {
		time.Sleep(60 * time.Millisecond)
		body, _ := json.Marshal(server.FleetRegisterRequest{URL: joiner.URL, TTLSeconds: 300})
		resp, err := http.Post(registry.URL+"/v1/fleet/register", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()

	dopts := opts
	dopts.Checkpoint = openTestJournal(t)
	err := fleetDispatch(dopts, registryFleet(registry.Client(), registry.URL), fleetConfig{
		ShardRuns:    1,
		Client:       registry.Client(),
		Policy:       testPolicy,
		PollInterval: 10 * time.Millisecond,
		JoinGrace:    2 * time.Second,
	})
	if err != nil {
		t.Fatalf("registry dispatch: %v", err)
	}
	if joinerShards.Load() == 0 {
		t.Fatal("late joiner executed no shards; membership polling never picked it up")
	}
	meta := dopts.Meta()
	for appIdx := range meta.Apps {
		for i := 0; i < meta.Injections; i++ {
			if !dopts.Checkpoint.Has(dopts.DetectInjectKey(appIdx, i)) {
				t.Fatalf("app %d run %d missing after late join", appIdx, i)
			}
		}
	}
}

// TestFleetDispatchRegistryGraceExpires: losing every worker gives the
// fleet JoinGrace to complete a shard again, and with none completed the
// dispatch fails with the grace diagnosis instead of hanging. A static
// -workers list is a fixed registry listing, so it takes the same path as a
// registry fleet. Only a completed shard ends the grace: a worker that
// answers every plan probe but fails every shard keeps rejoining, and must
// not keep the campaign alive.
func TestFleetDispatchRegistryGraceExpires(t *testing.T) {
	for _, tc := range []struct {
		name          string
		registry      bool
		plansAnswered int64 // 0: every plan probe
	}{
		{"registry", true, 1},
		{"workers", false, 1},
		{"registry-plans-ok-shards-fail", true, 0},
		{"workers-plans-ok-shards-fail", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The worker answers the coordinator's plan probes (only the
			// first, or all of them) and fails every shard.
			var plans atomic.Int64
			backend := server.New(server.Config{Workers: 2})
			dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/campaign/plan") &&
					(tc.plansAnswered == 0 || plans.Add(1) <= tc.plansAnswered) {
					backend.ServeHTTP(w, r)
					return
				}
				http.Error(w, "worker lost", http.StatusInternalServerError)
			}))
			t.Cleanup(dying.Close)
			resolve := fixedFleet([]string{dying.URL})
			if tc.registry {
				registry := newWorker(t)
				registerWorker(t, registry.Client(), registry.URL, dying.URL)
				resolve = registryFleet(registry.Client(), registry.URL)
			}

			opts := fleetTestOptions(t)
			opts.Checkpoint = openTestJournal(t)
			err := fleetDispatch(opts, resolve, fleetConfig{
				ShardRuns:    2,
				Client:       dying.Client(),
				Policy:       testPolicy,
				PollInterval: 10 * time.Millisecond,
				JoinGrace:    100 * time.Millisecond,
			})
			if err == nil || !strings.Contains(err.Error(), "none joined within") {
				t.Fatalf("grace expiry not reported: %v", err)
			}
		})
	}
}

// TestFleetDispatchHungProbeDoesNotDelayFinish: a dead worker that hangs on
// its membership re-probe must not hold up a campaign the survivor has
// finished; stopping membership cancels the probe.
func TestFleetDispatchHungProbeDoesNotDelayFinish(t *testing.T) {
	var plans atomic.Int64
	probeHung := make(chan struct{})
	release := make(chan struct{})
	backend := server.New(server.Config{Workers: 2})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/campaign/plan") {
			http.Error(w, "worker lost", http.StatusInternalServerError)
			return
		}
		switch plans.Add(1) {
		case 1:
			backend.ServeHTTP(w, r)
			return
		case 2:
			close(probeHung)
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })

	// The survivor holds its shards until a re-probe of the dead worker
	// hangs, so the campaign always finishes with that probe in flight.
	healthySrv := server.New(server.Config{Workers: 2})
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/campaign/shard") {
			waitOrError(t, probeHung, "the dead worker was never re-probed")
		}
		healthySrv.ServeHTTP(w, r)
	}))
	t.Cleanup(healthy.Close)

	opts := fleetTestOptions(t)
	opts.Checkpoint = openTestJournal(t)
	done := make(chan error, 1)
	go func() {
		done <- fleetDispatch(opts, fixedFleet([]string{healthy.URL, hung.URL}), fleetConfig{
			ShardRuns:    2,
			Client:       healthy.Client(),
			Policy:       testPolicy,
			PollInterval: 10 * time.Millisecond,
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fleetDispatch: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the finished campaign waited on a hung membership probe")
	}
}

// TestStartProgressServer: the coordinator's progress endpoint binds an
// ephemeral port and serves the §7 resource.
func TestStartProgressServer(t *testing.T) {
	base, stop, err := startProgressServer("127.0.0.1:0", func() server.CampaignProgress {
		return server.CampaignProgress{Campaign: "bench-f00", Fingerprint: "f00", CellsDone: 1, CellsTotal: 4}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get(base + "/v1/campaign/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status = %d", resp.StatusCode)
	}
	var prog server.CampaignProgress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	if prog.Schema != server.SchemaVersion || prog.Campaign != "bench-f00" || prog.CellsDone != 1 {
		t.Fatalf("progress = %+v", prog)
	}
}

// TestFleetDispatchInterrupt: an interrupt closed before dispatch returns
// ErrInterrupted without sending work.
func TestFleetDispatchInterrupt(t *testing.T) {
	opts := fleetTestOptions(t)
	opts.Checkpoint = openTestJournal(t)
	interrupt := make(chan struct{})
	close(interrupt)
	opts.Interrupt = interrupt

	ts := newWorker(t)
	err := testDispatch(opts, []string{ts.URL}, 2, ts.Client())
	if !errors.Is(err, experiment.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}
