package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cord/internal/baseline"
	"cord/internal/checkpoint"
	"cord/internal/core"
	"cord/internal/experiment"
	"cord/internal/record"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// Every traced run times each layer's kernel, so every per-layer metric is a
// measurement on every workload. A workload hands the kernels its own
// inputs where it has them (panelInputs); the rest run on seed-derived
// defaults: the campaign's sizing runs at BaseSeed 0xC0DD+seed and the
// seed's synthetic log.

// panelInputs are a workload's own inputs for the layer kernels.
type panelInputs struct {
	body   []byte         // stream body the record and net/http kernels decode and send
	replay []replayTarget // logs the replay kernel replays
	cells  []journalCell  // journal cells the checkpoint kernel appends
}

// replayTarget is one recorded run to replay from a pre-filled ReplayFeed.
type replayTarget struct {
	app       workload.App
	seed      uint64
	log       *record.Log
	injThread int // -1: no injection
	injNth    uint64
}

type journalCell struct {
	key  string
	data json.RawMessage
}

// panel is what the kernels measured.
type panel struct {
	k kernels

	replayNs  float64
	replayAcc uint64

	decodeNs, pushNs float64 // per body
	frames, epochs   uint64
	bodyBytes        int
	xferMBps         float64

	appendUs float64
}

// kernelReps is how many repetitions each kernel makes; it reports medians.
const kernelReps = 3

// measurePanel runs every layer kernel and reports its metrics.
func measurePanel(e *env, in panelInputs, put func(string, float64)) (*panel, error) {
	baseSeed := campaignOptions(e).BaseSeed
	p := &panel{}
	k, targets, cells, err := measureKernels(baseSeed)
	if err != nil {
		return nil, err
	}
	p.k = k
	put("sim.record_ns_per_access", k.engineNs/float64(k.accesses))
	put("sim.accesses", float64(k.accesses))
	put("sim.ops", float64(k.ops))
	for _, d := range detectorSet {
		put(d.metric, k.detNs[d.metric]/float64(k.accesses))
	}

	if in.replay != nil {
		targets = in.replay
	}
	if err := p.measureReplay(targets); err != nil {
		return nil, err
	}
	put("sim.replay_ns_per_access", p.replayNs/float64(p.replayAcc))

	body := in.body
	if body == nil {
		var buf bytes.Buffer
		if err := synthLog(e.seed).EncodeTo(&buf); err != nil {
			return nil, err
		}
		body = buf.Bytes()
	}
	if err := p.measureRecord(body); err != nil {
		return nil, err
	}
	put("record.decode_ns_per_frame", p.decodeNs/float64(p.frames))
	put("record.epochstream_ns_per_frame", p.pushNs/float64(p.frames))
	put("record.frames", float64(p.frames))
	put("record.epochs", float64(p.epochs))
	if p.xferMBps, err = transferMBps(body); err != nil {
		return nil, err
	}
	put("http.transfer_mb_per_s", p.xferMBps)

	if in.cells != nil {
		cells = in.cells
	}
	if p.appendUs, err = appendUs(cells, filepath.Join(e.work, "append.cordckpt")); err != nil {
		return nil, err
	}
	put("checkpoint.append_us_per_cell", p.appendUs)
	return p, nil
}

// detectorSet lists the campaign's nine detector configurations with the
// metric each one's replay time is reported under; make builds a fresh
// instance exactly as experiment's injection runs do.
var detectorSet = []struct {
	metric, config string
	make           func() racer
}{
	{"baseline.ideal.ns_per_access", "Ideal", func() racer { return baseline.NewIdeal(4) }},
	{"baseline.vec_inf.ns_per_access", "Vector/InfCache", func() racer {
		return baseline.NewVecCache(baseline.VecConfig{Threads: 4, Procs: 4, Bound: baseline.BoundInf})
	}},
	{"baseline.vec_l2.ns_per_access", "Vector/L2Cache", func() racer {
		return baseline.NewVecCache(baseline.VecConfig{Threads: 4, Procs: 4, Bound: baseline.BoundL2})
	}},
	{"baseline.vec_l1.ns_per_access", "Vector/L1Cache", func() racer {
		return baseline.NewVecCache(baseline.VecConfig{Threads: 4, Procs: 4, Bound: baseline.BoundL1})
	}},
	{"baseline.fasttrack.ns_per_access", "FastTrack", func() racer {
		return baseline.NewFastTrack(baseline.FastTrackConfig{Threads: 4})
	}},
	{"core.d1.ns_per_access", "CORD(D=1)", func() racer { return core.New(core.Config{Threads: 4, Procs: 4, D: 1}) }},
	{"core.d4.ns_per_access", "CORD(D=4)", func() racer { return core.New(core.Config{Threads: 4, Procs: 4, D: 4}) }},
	{"core.d16.ns_per_access", "CORD(D=16)", func() racer { return core.New(core.Config{Threads: 4, Procs: 4, D: 16}) }},
	{"core.d256.ns_per_access", "CORD(D=256)", func() racer { return core.New(core.Config{Threads: 4, Procs: 4, D: 256}) }},
}

// racer is what the benchmark needs from a detector.
type racer interface {
	trace.Observer
	RaceCount() int
}

// event is one captured observer callback: an access, or (done) a
// ThreadDone carrying the thread in Thread and its total in Instr.
type event struct {
	a    trace.Access
	done bool
}

// capture records the observer callbacks of one run. The measured runs
// never migrate threads, so Migrate has nothing to record.
type capture struct{ ev []event }

func (c *capture) Name() string { return "capture" }
func (c *capture) OnAccess(a trace.Access) trace.Report {
	c.ev = append(c.ev, event{a: a})
	return trace.Report{}
}
func (c *capture) Migrate(thread, proc int, instr uint64) {}
func (c *capture) ThreadDone(thread int, total uint64) {
	c.ev = append(c.ev, event{a: trace.Access{Thread: thread, Instr: total}, done: true})
}
func (c *capture) Finish() {}

// replayInto feeds captured callbacks to a detector, as the engine would.
func replayInto(o trace.Observer, ev []event) {
	for i := range ev {
		if ev[i].done {
			o.ThreadDone(ev[i].a.Thread, ev[i].a.Instr)
		} else {
			o.OnAccess(ev[i].a)
		}
	}
	o.Finish()
}

// kernels is the engine and detector split of one pass over every
// application's sizing-run configuration.
type kernels struct {
	accesses, ops uint64
	engineNs      float64            // Engine.Run with only the capture observer
	detNs         map[string]float64 // each detector fed the captured stream
	fullNs        float64            // Engine.Run with all nine detectors attached
}

func (k kernels) detTotal() float64 {
	t := 0.0
	for _, v := range k.detNs {
		t += v
	}
	return t
}

// measureKernels times the engine and each detector on one run per
// application (the campaign's sizing-run configuration at baseSeed), and
// checks that replaying the captured stream reproduces every detector's race
// count from the full run, which is what makes the split sound. It also
// returns each run's order log, recorded by a separate CORD run, and a
// journal cell per campaign run built from the full runs' verdicts.
func measureKernels(baseSeed uint64) (kernels, []replayTarget, []journalCell, error) {
	var engine, full []float64
	det := map[string][]float64{}
	var k kernels
	var targets []replayTarget
	var cells []journalCell
	opts := experiment.Options{Injections: campaignInjections, BaseSeed: baseSeed}
	for rep := 0; rep < kernelReps; rep++ {
		var eng, fl float64
		ds := map[string]float64{}
		k.accesses, k.ops = 0, 0
		for appIdx, app := range workload.All() {
			cfg := sim.Config{Seed: baseSeed, Jitter: campaignJitter}
			c := &capture{}
			cfg.Observers = []trace.Observer{c}
			start := time.Now()
			res, err := sim.New(cfg, app.Build(1, 4)).Run()
			if err != nil {
				return k, nil, nil, fmt.Errorf("capture run of %s: %w", app.Name, err)
			}
			eng += float64(time.Since(start))
			k.accesses += res.Accesses
			k.ops += res.Ops

			counts := map[string]int{}
			for _, d := range detectorSet {
				o := d.make()
				start := time.Now()
				replayInto(o, c.ev)
				ds[d.metric] += float64(time.Since(start))
				counts[d.metric] = o.RaceCount()
			}

			obs := make([]trace.Observer, len(detectorSet))
			dets := make([]racer, len(detectorSet))
			for i, d := range detectorSet {
				dets[i] = d.make()
				obs[i] = dets[i]
			}
			cfg.Observers = obs
			start = time.Now()
			if _, err := sim.New(cfg, app.Build(1, 4)).Run(); err != nil {
				return k, nil, nil, fmt.Errorf("full run of %s: %w", app.Name, err)
			}
			fl += float64(time.Since(start))
			for i, d := range detectorSet {
				if got, want := counts[d.metric], dets[i].RaceCount(); got != want {
					return k, nil, nil, fmt.Errorf("%w: %s on %s: replayed stream found %d races, the live run %d",
						errCheck, d.metric, app.Name, got, want)
				}
			}
			if rep > 0 {
				continue
			}

			rec := core.New(core.Config{Threads: 4, Procs: 4, D: 16, Record: true})
			cfg.Observers = []trace.Observer{rec}
			if _, err := sim.New(cfg, app.Build(1, 4)).Run(); err != nil {
				return k, nil, nil, fmt.Errorf("recording run of %s: %w", app.Name, err)
			}
			targets = append(targets, replayTarget{app: app, seed: baseSeed, log: rec.Log(), injThread: -1})

			// The journal shape of an injection outcome, filled from the
			// full run's nine verdicts, under each of the app's run keys.
			outcome := struct {
				Landed     bool            `json:"landed"`
				Manifested bool            `json:"manifested,omitempty"`
				Problems   map[string]bool `json:"problems,omitempty"`
				Races      map[string]int  `json:"races,omitempty"`
			}{Landed: true, Manifested: dets[0].RaceCount() > 0, Problems: map[string]bool{}, Races: map[string]int{}}
			for i, d := range detectorSet {
				outcome.Problems[d.config] = dets[i].RaceCount() > 0
				outcome.Races[d.config] = dets[i].RaceCount()
			}
			data, err := json.Marshal(outcome)
			if err != nil {
				return k, nil, nil, err
			}
			cells = append(cells, journalCell{opts.DetectCountKey(appIdx), data})
			for j := 0; j < campaignInjections; j++ {
				cells = append(cells, journalCell{opts.DetectInjectKey(appIdx, j), data})
			}
		}
		engine = append(engine, eng)
		full = append(full, fl)
		for m, v := range ds {
			det[m] = append(det[m], v)
		}
	}
	k.engineNs, k.fullNs = median(engine), median(full)
	k.detNs = map[string]float64{}
	for m, v := range det {
		k.detNs[m] = median(v)
	}
	return k, targets, cells, nil
}

// measureReplay times Engine.Run fed by a pre-filled ReplayFeed, with no
// observer, over every target.
func (p *panel) measureReplay(targets []replayTarget) error {
	var ns []float64
	for rep := 0; rep < kernelReps; rep++ {
		var total float64
		p.replayAcc = 0
		for _, t := range targets {
			start := time.Now()
			res, err := t.replay(nil)
			if err != nil {
				return err
			}
			if res.Hung {
				return fmt.Errorf("%w: replay of %s did not follow its log", errCheck, t.app.Name)
			}
			total += float64(time.Since(start))
			p.replayAcc += res.Accesses
		}
		ns = append(ns, total)
	}
	p.replayNs = median(ns)
	return nil
}

// replay runs the target's log through an engine fed by a pre-filled
// ReplayFeed, as an online session's engine is fed, with obs attached.
func (t replayTarget) replay(obs []trace.Observer) (sim.Result, error) {
	epochs, err := t.log.Schedule(4)
	if err != nil {
		return sim.Result{}, err
	}
	feed := sim.NewReplayFeed()
	feed.Append(epochs...)
	feed.CloseFeed()
	cfg := sim.Config{Seed: t.seed, ReplayFeed: feed, Observers: obs}
	if t.injThread >= 0 {
		cfg.InjectThread, cfg.InjectThreadNth = t.injThread, t.injNth
	}
	return sim.New(cfg, t.app.Build(1, 4)).Run()
}

// measureRecord times StreamDecoder.Feed over body in the server's chunk
// size, and EpochStream.Push plus Flush over its entries.
func (p *panel) measureRecord(body []byte) error {
	var entries []record.Entry
	if err := feedAll(body, func(en record.Entry) error { entries = append(entries, en); return nil }); err != nil {
		return err
	}
	p.frames = uint64(len(entries))
	var dec, push []float64
	for rep := 0; rep < kernelReps; rep++ {
		start := time.Now()
		if err := feedAll(body, func(record.Entry) error { return nil }); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(start)))

		es := record.NewEpochStream(4)
		p.epochs = 0
		start = time.Now()
		for _, en := range entries {
			rel, err := es.Push(en)
			if err != nil {
				return err
			}
			p.epochs += uint64(len(rel))
		}
		p.epochs += uint64(len(es.Flush()))
		push = append(push, float64(time.Since(start)))
	}
	p.decodeNs, p.pushNs = median(dec), median(push)
	return nil
}

// feedAll decodes body through a StreamDecoder in the server's chunk size.
func feedAll(body []byte, emit func(record.Entry) error) error {
	d := record.NewStreamDecoder()
	for p := body; len(p) > 0; {
		n := min(len(p), streamChunk)
		if err := d.Feed(p[:n], emit); err != nil {
			return err
		}
		p = p[n:]
	}
	return d.Close()
}

// transferMBps is net/http's own cost for this body: POSTs over loopback to
// a handler that discards it, median MB/s.
func transferMBps(body []byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	tp := &http.Transport{DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	url := "http://" + ln.Addr().String() + "/"
	var rates []float64
	for rep := 0; rep < 2*kernelReps+1; rep++ {
		start := time.Now()
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rates = append(rates, float64(len(body))/1e6/time.Since(start).Seconds())
	}
	return median(rates), nil
}

// appendUs appends cells to a fresh journal at path, as the fleet
// coordinator merges them, and returns the median time per cell.
func appendUs(cells []journalCell, path string) (float64, error) {
	var per []float64
	for rep := 0; rep < kernelReps; rep++ {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		j, err := checkpoint.Open(path)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for _, c := range cells {
			if err := j.Append(c.key, c.data); err != nil {
				j.Close()
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start))/1e3/float64(len(cells)))
		if err := j.Close(); err != nil {
			return 0, err
		}
	}
	return median(per), os.Remove(path)
}
