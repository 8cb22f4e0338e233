package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"cord/internal/experiment"
	"cord/internal/workload"
)

// goldenBaseSeed is the campaign base seed the committed goldens in bench/
// were produced at (experiment's default). Workload seed 0 maps onto it.
const goldenBaseSeed = 0xC0DD

// campaignInjections matches the goldens: 12 apps x (1 sizing + 8
// injection runs) = 108 simulation runs per campaign.
const campaignInjections = 8

// campaignJitter is the scheduling jitter every campaign run uses.
const campaignJitter = 7

var goldenFigures = []string{"fig10", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"}

// campaignBench runs experiment.RunDetection, the paper's evaluation and
// cordbench's main job: simulation engine plus nine detectors per run, no
// HTTP, no stream decoding.
type campaignBench struct {
	opts   experiment.Options
	golden map[string]experiment.Artifact // nil unless at the golden seed

	mu    sync.Mutex
	first []byte // the first operation's artifacts; every later one must match
}

func campaignOptions(e *env) experiment.Options {
	return experiment.Options{
		Injections: campaignInjections,
		BaseSeed:   goldenBaseSeed + e.seed,
		Procs:      e.par,
	}
}

func prepareCampaign(e *env) (setupFunc, error) {
	return func() (bench, error) { return setupCampaign(e) }, nil
}

func setupCampaign(e *env) (bench, error) {
	b := &campaignBench{opts: campaignOptions(e)}
	if b.opts.BaseSeed == goldenBaseSeed {
		b.golden = map[string]experiment.Artifact{}
		for _, id := range goldenFigures {
			a, err := experiment.ReadArtifact(filepath.Join(e.root, "bench", experiment.ArtifactFileName(id)))
			if err != nil {
				return nil, err
			}
			b.golden[id] = a
		}
	}
	// Warm-up: one application's sizing run and first injection run.
	warm := b.opts
	warm.Procs = 1
	if _, err := experiment.ExecuteDetectShard(warm, experiment.ShardSpec{
		Ranges: []experiment.ShardRange{{App: workload.All()[0].Name, Lo: 0, Hi: 1}},
	}); err != nil {
		return nil, fmt.Errorf("warm-up shard: %w", err)
	}
	return b, nil
}

func (b *campaignBench) clients() int { return 1 }
func (b *campaignBench) close()       {}

func (b *campaignBench) op(tr *tracer) (float64, error) {
	id, start := tr.begin()
	res, err := experiment.RunDetection(b.opts)
	tr.end(id, id, 0, "experiment.RunDetection", start)
	if err != nil {
		return 0, err
	}
	if n := res.FalsePositives(); n != 0 {
		return 0, fmt.Errorf("%w: campaign: %d oracle-unconfirmed reports", errCheck, n)
	}
	figs := map[string]experiment.Figure{
		"fig10": res.Fig10(), "fig12": res.Fig12(), "fig13": res.Fig13(), "fig14": res.Fig14(),
		"fig15": res.Fig15(), "fig16": res.Fig16(), "fig17": res.Fig17(),
	}
	var all bytes.Buffer
	for _, id := range goldenFigures {
		a := experiment.FigureArtifact(figs[id], b.opts.Meta())
		if b.golden != nil {
			if diffs := experiment.DiffArtifacts(a, b.golden[id], experiment.DiffOptions{}); len(diffs) > 0 {
				return 0, fmt.Errorf("%w: campaign: %s differs from the golden: %s (%d differences)",
					errCheck, id, diffs[0], len(diffs))
			}
		}
		enc, err := a.Encode()
		if err != nil {
			return 0, err
		}
		all.Write(enc)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first == nil {
		b.first = all.Bytes()
	} else if !bytes.Equal(b.first, all.Bytes()) {
		return 0, fmt.Errorf("%w: campaign: artifacts differ between identical campaigns", errCheck)
	}
	return float64(len(res.Apps) * (1 + b.opts.Injections)), nil
}

func (b *campaignBench) inputs() (panelInputs, error) { return panelInputs{}, nil }

// layers measures how well the campaign's fan-out uses its Procs, and what
// share of the campaign the engine and detector kernels leave unaccounted.
func (b *campaignBench) layers(e *env, traced phase, p *panel, put func(string, float64)) error {
	// Serial work: every application's runs as one shard at Procs 1, the
	// work a fleet worker's shard handler does for that application.
	var serial, shardMs []float64
	serialOpts := b.opts
	serialOpts.Procs = 1
	for _, app := range workload.All() {
		start := time.Now()
		if _, err := experiment.ExecuteDetectShard(serialOpts, experiment.ShardSpec{
			Ranges: []experiment.ShardRange{{App: app.Name, Lo: 0, Hi: b.opts.Injections}},
		}); err != nil {
			return err
		}
		d := time.Since(start)
		serial = append(serial, float64(d))
		shardMs = append(shardMs, float64(d)/1e6)
	}
	total := 0.0
	for _, d := range serial {
		total += d
	}
	tail, _ := tailOf(shardMs)
	put("server.request_p50_ms", median(shardMs))
	put("server.request_tail_ms", tail)

	capacity := median(traced.lat) * 1e6 * float64(b.opts.Procs)
	put("experiment.parallel_efficiency", total/capacity)
	// The kernels time one run per application; the campaign runs 1 +
	// Injections per application.
	accounted := float64(1+b.opts.Injections) * (p.k.engineNs + p.k.detTotal())
	put("unaccounted_pct", 100*(capacity-accounted)/capacity)
	fmt.Printf("perfbench: campaign layers: engine %.0f ms, detectors %.0f ms, full runs %.0f ms per pass of %d apps; serial campaign %.0f ms\n",
		p.k.engineNs/1e6, p.k.detTotal()/1e6, p.k.fullNs/1e6, len(workload.All()), total/1e6)
	return nil
}
