package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"cord/internal/clock"
	"cord/internal/core"
	"cord/internal/record"
	"cord/internal/server"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// streamKind selects one of the three /v1/stream workloads.
type streamKind int

const (
	// kindPlain: verify=0 sessions on the synthetic log — decode, shard
	// fold and content hash only.
	kindPlain streamKind = iota
	// kindDuty0: detect=online&duty=0 on the same log — adds the epoch
	// release and the parallel shard fold, but no engine or detector.
	kindDuty0
	// kindOnline: detect=online&duty=100&detector=cord on a recorded racy
	// fixture — the replay engine and one detector run behind the stream.
	kindOnline
)

// synthFrames is the synthetic log's entry count: 2 Mi entries, 16 MiB on
// the wire. Each of the four threads gets about a quarter of them and its
// clock advances at least one per entry, so every 16-bit clock wraps about
// eight times.
const synthFrames = 2 << 20

// streamChunk is the server's read size (server.streamReadChunk); the
// decode kernel feeds the decoder chunks of this size.
const streamChunk = 32 << 10

// onlineApp is the online fixture's application: a recorded water-n2 run
// is about 33k frames, so one session is a fraction of a second.
const onlineApp = "water-n2"

// streamBench drives POST /v1/stream on an in-process cordd over loopback
// from one closed-loop client. Online and duty=0 sessions already use both
// CPUs of a 2-CPU host (the engine goroutine, the parallel fold), and a
// second client made session tails three times less steady.
type streamBench struct {
	kind   streamKind
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	url    string
	client *http.Client
	tr     atomic.Pointer[tracer]

	body   []byte // the encoded order log every session streams
	query  string
	frames uint64
	hash   string // FNV-1a of the entry bytes, as the server renders it

	fx *fixture // online only
}

// fixture is a recorded, injected run whose CORD verdict has races.
type fixture struct {
	replayTarget
	inject uint64
	races  []string // the recording run's CORD races, capped like responses
}

func prepareStream(e *env, kind streamKind) (setupFunc, error) {
	if kind != kindOnline {
		return func() (bench, error) { return setupStream(e, kind, nil) }, nil
	}
	simSeed, inject, err := chooseInjection(e.seed)
	if err != nil {
		return nil, err
	}
	return func() (bench, error) {
		fx, err := recordFixture(simSeed, inject)
		if err != nil {
			return nil, err
		}
		if fx == nil {
			return nil, fmt.Errorf("%s injection %d no longer records a racy, replayable run", onlineApp, inject)
		}
		return setupStream(e, kind, fx)
	}, nil
}

// setupStream generates the session body — the synthetic log, or the
// online fixture's recorded log — and starts the server.
func setupStream(e *env, kind streamKind, fx *fixture) (bench, error) {
	b := &streamBench{kind: kind, fx: fx}
	var log *record.Log
	switch kind {
	case kindOnline:
		log = fx.log
		b.query = fmt.Sprintf("app=%s&seed=%d&threads=4&inject=%d&verify=0&detect=online&duty=100&detector=cord&inject_thread=%d&inject_nth=%d",
			onlineApp, fx.seed, fx.inject, fx.injThread, fx.injNth)
	default:
		log = synthLog(e.seed)
		b.query = "app=fft&seed=1&threads=4&verify=0"
		if kind == kindDuty0 {
			b.query += "&detect=online&duty=0"
		}
	}
	var buf bytes.Buffer
	if err := log.EncodeTo(&buf); err != nil {
		return nil, err
	}
	b.body = buf.Bytes()
	b.frames = uint64(log.Len())
	h := fnv.New64a()
	h.Write(b.body[record.HeaderBytes:])
	b.hash = fmt.Sprintf("%016x", h.Sum64())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.srv = server.New(server.Config{Workers: 1})
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: spanHandler(&b.tr, "server.stream", b.srv)}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.hs.Serve(ln)
	}()
	b.client = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	return b, nil
}

// synthMaxSkew bounds how far any thread's clock trails the leading one.
// Synchronization keeps recorded clocks close: in recorded runs of the
// Table 1 applications the spread stays between about 60 and 250 ticks.
// The epoch stream's reorder heap grows with this spread.
const synthMaxSkew = 200

// synthLog builds the seed's synthetic order log: a random thread per
// entry, whose clock advances by one or, when it trails the leading thread
// by more than synthMaxSkew, catches up to that distance; instruction
// counts are random.
func synthLog(seed uint64) *record.Log {
	rng := rand.New(rand.NewPCG(seed, 0x10C5))
	var clocks [4]uint64 // unwrapped
	lead := uint64(0)
	l := &record.Log{}
	for i := 0; i < synthFrames; i++ {
		t := rng.IntN(len(clocks))
		l.Append(record.Entry{Clock: clock.Scalar(clocks[t]), Thread: uint16(t), Instr: 1 + rng.Uint32N(1000)})
		clocks[t] = max(clocks[t]+1, lead-min(lead, synthMaxSkew))
		lead = max(lead, clocks[t])
	}
	return l
}

// chooseInjection picks the online fixture's run: the first seed-derived
// pair of water-n2 scheduling seed and injection whose recording CORD
// reports races on and whose log replays to completion. CORD reports races
// on only a few percent of water-n2 injections, and on none at some
// scheduling seeds, so each try draws both.
func chooseInjection(seed uint64) (simSeed, inject uint64, err error) {
	app, err := workload.ByName(onlineApp)
	if err != nil {
		return 0, 0, err
	}
	sized, err := sim.New(sim.Config{Seed: 1, Jitter: campaignJitter}, app.Build(1, 4)).Run()
	if err != nil {
		return 0, 0, err
	}
	// Sync instance counts vary slightly with the schedule; a target
	// beyond a run's count does not fire and the try is skipped.
	span := max(sized.SyncInstances*9/10, 1)
	rng := rand.New(rand.NewPCG(seed, 0xF1C5))
	for try := 0; try < 256; try++ {
		simSeed, inject = 1+rng.Uint64N(1<<32), 1+rng.Uint64N(span)
		fx, err := recordFixture(simSeed, inject)
		if err != nil {
			return 0, 0, err
		}
		if fx != nil {
			return simSeed, inject, nil
		}
	}
	return 0, 0, fmt.Errorf("no racy, replayable %s injection found for seed %d", onlineApp, seed)
}

// recordFixture records water-n2 with the given injection under a
// recording CORD detector and replays the log once; it returns nil when the
// run is not racy or its log does not replay to completion.
func recordFixture(simSeed, inject uint64) (*fixture, error) {
	app, err := workload.ByName(onlineApp)
	if err != nil {
		return nil, err
	}
	det := core.New(core.Config{Threads: 4, Procs: 4, D: 16, Record: true})
	res, err := sim.New(sim.Config{Seed: simSeed, Jitter: campaignJitter, InjectSkip: inject,
		Observers: []trace.Observer{det}}, app.Build(1, 4)).Run()
	if err != nil {
		return nil, err
	}
	if res.Hung || res.InjectedThread < 0 || len(det.Races()) == 0 {
		return nil, nil
	}
	fx := &fixture{inject: inject, replayTarget: replayTarget{app: app, seed: simSeed, log: det.Log(),
		injThread: res.InjectedThread, injNth: res.InjectedThreadNth}}
	for i, r := range det.Races() {
		if i >= server.MaxRacesInResponse {
			break
		}
		fx.races = append(fx.races, r.String())
	}
	rep, err := fx.replay(nil)
	if err != nil || rep.Hung {
		return nil, nil
	}
	return fx, nil
}

func (b *streamBench) clients() int { return 1 }

func (b *streamBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.hs.Shutdown(ctx)
	<-b.served
	b.srv.Shutdown(ctx)
	b.client.CloseIdleConnections()
}

func (b *streamBench) op(tr *tracer) (float64, error) {
	b.tr.Store(tr)
	id, start := tr.begin()
	req, err := http.NewRequest(http.MethodPost, b.url+"/v1/stream?"+b.query, bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	setSpanHeaders(req.Header, id, id)
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id, id, 0, "client.stream", start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stream: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := b.check(body); err != nil {
		return 0, err
	}
	if b.kind == kindOnline {
		return float64(b.frames), nil
	}
	return float64(len(b.body)) / 1e6, nil
}

// check verifies one session's response against what the benchmark
// computed itself.
func (b *streamBench) check(body []byte) error {
	// Online sessions may precede the indented summary with one-line
	// progress frames; the summary starts at the first line that is "{".
	if i := bytes.Index(body, []byte("\n{\n")); i >= 0 && !bytes.HasPrefix(body, []byte("{\n")) {
		if bytes.Contains(body[:i], []byte(`"frame":"error"`)) {
			return fmt.Errorf("%w: stream: error frame: %s", errCheck, body[:i])
		}
		body = body[i+1:]
	}
	var sr server.StreamResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("%w: stream: summary: %v", errCheck, err)
	}
	if sr.Frames != b.frames || sr.LogHash != b.hash {
		return fmt.Errorf("%w: stream: frames %d hash %s, want %d %s", errCheck, sr.Frames, sr.LogHash, b.frames, b.hash)
	}
	switch b.kind {
	case kindDuty0:
		if sr.Online == nil || !sr.Online.Completed || sr.Online.EpochsTotal != b.frames {
			return fmt.Errorf("%w: duty0: online block %+v, want %d epochs released", errCheck, sr.Online, b.frames)
		}
	case kindOnline:
		o := sr.Online
		if o == nil || !o.Completed || o.Divergence != "" {
			return fmt.Errorf("%w: online: replay did not complete: %+v", errCheck, o)
		}
		if strings.Join(o.Races, "\n") != strings.Join(b.fx.races, "\n") {
			return fmt.Errorf("%w: online: %d races differ from the recording run's %d", errCheck, len(o.Races), len(b.fx.races))
		}
	}
	return nil
}

func (b *streamBench) inputs() (panelInputs, error) {
	in := panelInputs{body: b.body}
	if b.fx != nil {
		in.replay = []replayTarget{b.fx.replayTarget}
	}
	return in, nil
}

// layers reads the server's own view of the sessions — the handler spans
// and its stream counters — and subtracts the kernels the session crosses
// from the session time: decode and loopback transfer always, the epoch
// release past plain ingest, and the replay engine plus CORD D=16 online.
func (b *streamBench) layers(e *env, traced phase, p *panel, put func(string, float64)) error {
	var ms []float64
	for _, s := range b.tr.Load().named("server.stream") {
		ms = append(ms, s.ms())
	}
	tail, _ := tailOf(ms)
	put("server.request_p50_ms", median(ms))
	put("server.request_tail_ms", tail)
	m := b.srv.Metrics()
	put("server.streams_completed", float64(m.Streams.Completed))
	put("server.frames_ingested", float64(m.Streams.FramesIngested))

	accounted := p.decodeNs + float64(len(b.body))/1e6/p.xferMBps*1e9
	if b.kind != kindPlain {
		accounted += p.pushNs
	}
	if b.kind == kindOnline {
		d16 := p.k.detNs["core.d16.ns_per_access"] / float64(p.k.accesses)
		accounted += p.replayNs + d16*float64(p.replayAcc)
	}
	session := median(traced.lat) * 1e6
	put("unaccounted_pct", 100*(session-accounted)/session)
	return nil
}
