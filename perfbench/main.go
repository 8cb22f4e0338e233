// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time against the public APIs of the internal
// packages, checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Inputs derive from -seed only. README.md explains the workloads, the
// metrics, and how to compare a change against its parent; run.py builds
// this command and cordbench from the checkout and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: where the checkout is, where scratch
// files go, and the load bounds.
type env struct {
	root      string // checkout root; the goldens live in root/bench
	work      string // scratch directory for journals and artifacts
	cordbench string // the cordbench binary built from the same tree
	seed      uint64
	// par bounds the load: campaign Procs and fleet workers. It is
	// min(2, NumCPU) so runs on hosts of different sizes apply the same
	// load and stay comparable.
	par int
}

// bench is one set-up workload instance.
type bench interface {
	// clients is the number of closed-loop clients driving op.
	clients() int
	// op performs one operation and checks its output. It returns the
	// units of work done; a non-nil error counts the operation as failed.
	op(tr *tracer) (work float64, err error)
	// inputs are the workload's own inputs for the layer kernels.
	inputs() (panelInputs, error)
	// layers fills the workload's own per-layer metrics from the traced
	// phase and the kernels; an error is a failed check.
	layers(e *env, traced phase, p *panel, put func(name string, v float64)) error
	close()
}

// setupFunc builds one workload instance; its time is setup_s.
type setupFunc func() (bench, error)

// workloads maps each -workload name to its preparation: choosing the
// seed's inputs, once and untimed, and returning the timed set-up.
var workloads = map[string]func(e *env) (setupFunc, error){
	"campaign":     prepareCampaign,
	"ingest":       func(e *env) (setupFunc, error) { return prepareStream(e, kindPlain) },
	"ingest-duty0": func(e *env) (setupFunc, error) { return prepareStream(e, kindDuty0) },
	"online":       func(e *env) (setupFunc, error) { return prepareStream(e, kindOnline) },
	"fleet":        prepareFleet,
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload: campaign, ingest, ingest-duty0, online or fleet")
		seed      = flag.Uint64("seed", 0, "workload seed; every input derives from it")
		seconds   = flag.Int("seconds", 10, "measured seconds")
		trace     = flag.Int("trace", 0, "1: print per-layer metrics from a traced run instead of the end-to-end metrics")
		root      = flag.String("root", ".", "checkout root")
		work      = flag.String("work", ".bench_build/perfbench", "scratch directory, inside the checkout")
		cordbench = flag.String("cordbench", ".bench_build/bin/cordbench", "cordbench binary built from the same tree")
		rev       = flag.String("rev", "unknown", "source revision recorded with the host")
	)
	flag.Parse()
	prepare, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	e := &env{root: *root, work: *work, cordbench: *cordbench, seed: *seed, par: min(2, runtime.NumCPU())}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printHost(*rev)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d par=%d\n", *name, *seed, *seconds, *trace, e.par)

	setup, err := prepare(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: choosing inputs: %v\n", err)
		return 1
	}
	// Set up several times; keep the last instance, close the others.
	var (
		b      bench
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		nb, err := setup()
		if err != nil {
			if b != nil {
				b.close()
			}
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
		if b != nil {
			b.close()
		}
		b = nb
	}
	defer b.close()
	setupS := median(setups)
	fmt.Printf("perfbench: setup_s=%.4f (median of %d: %s)\n", setupS, setupReps, fmtList(setups))

	d := time.Duration(*seconds) * time.Second
	res := result{Metrics: map[string]metric{}}
	var phases []phase
	if *trace == 0 {
		p := runPhase(b, nil, d)
		phases = append(phases, p)
		for k, v := range p.endToEnd(*name) {
			res.Metrics[k] = v
		}
		res.Metrics["setup_s"] = metric{setupS, "s"}
	} else {
		// Half the time untraced, half traced: the difference is the
		// tracing overhead, and the traced half feeds the layer metrics.
		plain := runPhase(b, nil, d/2)
		tr := newTracer()
		traced := runPhase(b, tr, d/2)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{0, m.unit}
		}
		put := func(name string, v float64) {
			m, ok := res.Metrics[name]
			if !ok {
				panic("perfbench: undeclared per-layer metric " + name)
			}
			m.Value = v
			res.Metrics[name] = m
		}
		pe, te := plain.endToEnd(*name), traced.endToEnd(*name)
		for k, v := range te {
			put("trace.overhead."+k, v.Value-pe[k].Value)
		}
		in, err := b.inputs()
		var p *panel
		if err == nil {
			p, err = measurePanel(e, in, put)
		}
		if err == nil {
			err = b.layers(e, traced, p, put)
		}
		if err != nil {
			traced.attempted++
			traced.failed++
			traced.errs = append(traced.errs, fmt.Errorf("layers: %w", err))
		}
		phases = append(phases, plain, traced)
		if err := tr.write(filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.json", *name, *seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res.Correct = true
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, err := range p.errs {
			fmt.Printf("perfbench: FAILED: %v\n", err)
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("perfbench: %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// phase is one closed-loop measurement window.
type phase struct {
	lat       []float64 // milliseconds per successful operation
	work      float64
	wall      time.Duration
	attempted int
	failed    int
	errs      []error // the first few failures, for the log
	allocMB   float64 // runtime.MemStats.TotalAlloc delta
}

// runPhase drives b.op from b.clients() closed-loop clients until d has
// passed; operations started before the deadline run to completion.
func runPhase(b bench, tr *tracer, d time.Duration) phase {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				w, err := b.op(tr)
				dt := time.Since(t0)
				mu.Lock()
				p.attempted++
				if err != nil {
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, err)
					}
				} else {
					p.lat = append(p.lat, float64(dt)/float64(time.Millisecond))
					p.work += w
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return p
}

// endToEnd derives the end-to-end metrics of a phase, logging how the tail
// percentile was chosen.
func (p phase) endToEnd(workload string) map[string]metric {
	tail, pct := tailOf(p.lat)
	fmt.Printf("perfbench: %s: %d ops (%d failed) in %.3fs; tail_ms is p%.1f of %d samples\n",
		workload, p.attempted, p.failed, p.wall.Seconds(), pct, len(p.lat))
	ops := max(p.attempted, 1)
	return map[string]metric{
		"work_per_s":      {p.work / p.wall.Seconds(), "work/s"},
		"p50_ms":          {median(p.lat), "ms"},
		"tail_ms":         {tail, "ms"},
		"alloc_mb_per_op": {p.allocMB / float64(ops), "MB"},
	}
}

// perLayer declares every per-layer metric; a traced run prints all of them.
// The cordbench and httpretry counters and ratios, parallel efficiency and
// the stream counters stay 0 on workloads that have no fleet, no campaign
// fan-out or no streams.
var perLayer = []struct{ name, unit string }{
	{"sim.record_ns_per_access", "ns"},
	{"sim.replay_ns_per_access", "ns"},
	{"sim.accesses", "count"},
	{"sim.ops", "count"},
	{"core.d1.ns_per_access", "ns"},
	{"core.d4.ns_per_access", "ns"},
	{"core.d16.ns_per_access", "ns"},
	{"core.d256.ns_per_access", "ns"},
	{"baseline.ideal.ns_per_access", "ns"},
	{"baseline.vec_inf.ns_per_access", "ns"},
	{"baseline.vec_l2.ns_per_access", "ns"},
	{"baseline.vec_l1.ns_per_access", "ns"},
	{"baseline.fasttrack.ns_per_access", "ns"},
	{"experiment.parallel_efficiency", "ratio"},
	{"record.decode_ns_per_frame", "ns"},
	{"record.epochstream_ns_per_frame", "ns"},
	{"record.frames", "count"},
	{"record.epochs", "count"},
	{"http.transfer_mb_per_s", "MB/s"},
	{"server.streams_completed", "count"},
	{"server.frames_ingested", "count"},
	{"server.request_p50_ms", "ms"},
	{"server.request_tail_ms", "ms"},
	{"checkpoint.append_us_per_cell", "us"},
	{"cordbench.worker0_busy_pct", "%"},
	{"cordbench.worker1_busy_pct", "%"},
	{"cordbench.coordination_pct", "%"},
	{"cordbench.useful_run_ratio", "ratio"},
	{"cordbench.stolen", "count"},
	{"cordbench.requeued", "count"},
	{"httpretry.retries", "count"},
	{"unaccounted_pct", "%"},
	{"trace.overhead.work_per_s", "work/s"},
	{"trace.overhead.p50_ms", "ms"},
	{"trace.overhead.tail_ms", "ms"},
	{"trace.overhead.alloc_mb_per_op", "MB"},
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest sample with at least ten samples beyond it and
// its percentile rank. Below 40 samples that rank falls under p75 or does
// not exist, and no tail is measurable: the median stands in (rank 50).
func tailOf(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 40 {
		return median(s), 50
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// printHost records the machine a result came from.
func printHost(rev string) {
	host := map[string]any{
		"cpu":        cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"rev":        rev,
	}
	b, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(b))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// errCheck marks an output check that failed.
var errCheck = errors.New("check failed")
