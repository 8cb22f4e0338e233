package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"cord/internal/checkpoint"
	"cord/internal/workload"
)

// shardTestOptions is a campaign small enough to run many times in a test
// yet wide enough to exercise multi-app sharding.
func shardTestOptions(t *testing.T) Options {
	t.Helper()
	fft, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	lu, err := workload.ByName("lu")
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		BaseSeed:   7,
		Injections: 4,
		Apps:       []workload.App{fft, lu},
		Procs:      2,
	}
}

// fullSpec covers every run of the campaign in one shard.
func fullSpec(o Options) ShardSpec {
	o = o.withDefaults()
	var spec ShardSpec
	for _, a := range o.Apps {
		spec.Ranges = append(spec.Ranges, ShardRange{App: a.Name, Lo: 0, Hi: o.Injections})
	}
	return spec
}

// TestExecuteDetectShardMatchesCampaignJournal: the distributed contract
// itself — a shard worker given only the campaign configuration produces,
// byte for byte, the journal records a local checkpointed campaign writes
// for the same runs. If this holds, merging remote cells into a journal is
// indistinguishable from having run the campaign locally.
func TestExecuteDetectShardMatchesCampaignJournal(t *testing.T) {
	o := shardTestOptions(t)

	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "local.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	local := o
	local.Checkpoint = j
	if _, err := RunDetection(local); err != nil {
		t.Fatalf("local campaign: %v", err)
	}

	cells, err := ExecuteDetectShard(o, fullSpec(o))
	if err != nil {
		t.Fatalf("ExecuteDetectShard: %v", err)
	}
	wantCells := len(o.Apps)*1 + len(o.Apps)*o.Injections
	if len(cells) != wantCells {
		t.Fatalf("shard returned %d cells, want %d", len(cells), wantCells)
	}
	for _, c := range cells {
		var journaled json.RawMessage
		ok, err := j.Lookup(c.Key, &journaled)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", c.Key, err)
		}
		if !ok {
			t.Fatalf("shard cell %s has no local-campaign counterpart", c.Key)
		}
		if !bytes.Equal(journaled, c.Data) {
			t.Errorf("cell %s differs:\n local  %s\n remote %s", c.Key, journaled, c.Data)
		}
	}
}

// TestExecuteDetectShardIdempotent: re-executing the same shard — and
// spec-equal shards written with different range order and overlaps —
// returns byte-identical cells in identical order. This is the §6
// idempotency rule the server's re-send behavior rests on.
func TestExecuteDetectShardIdempotent(t *testing.T) {
	o := shardTestOptions(t)
	spec := ShardSpec{Ranges: []ShardRange{
		{App: "lu", Lo: 1, Hi: 3},
		{App: "fft", Lo: 0, Hi: 2},
	}}
	// Same run set, scrambled order plus an overlapping range.
	equiv := ShardSpec{Ranges: []ShardRange{
		{App: "fft", Lo: 1, Hi: 2},
		{App: "lu", Lo: 2, Hi: 3},
		{App: "lu", Lo: 1, Hi: 3},
		{App: "fft", Lo: 0, Hi: 2},
	}}
	first, err := ExecuteDetectShard(o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Runs() != 4 || equiv.Runs() != 4 {
		t.Fatalf("Runs() = %d and %d, want 4 and 4", spec.Runs(), equiv.Runs())
	}
	for name, again := range map[string]ShardSpec{"re-sent": spec, "equivalent": equiv} {
		got, err := ExecuteDetectShard(o, again)
		if err != nil {
			t.Fatalf("%s shard: %v", name, err)
		}
		if len(got) != len(first) {
			t.Fatalf("%s shard: %d cells, want %d", name, len(got), len(first))
		}
		for i := range got {
			if got[i].Key != first[i].Key || !bytes.Equal(got[i].Data, first[i].Data) {
				t.Errorf("%s shard cell %d differs: %s vs %s", name, i, got[i].Key, first[i].Key)
			}
		}
	}
}

// TestShardMergeEquivalence: the coordinator's merge path — append remote
// cells to a journal, then run the unchanged campaign against it — produces
// results byte-equal to a direct run, with every run a journal hit (nothing
// re-simulated locally). Besides a fixed two-worker split, seeded cases cut
// each app's run range at random points, group the pieces into shards of up
// to three ranges, append some shards twice, and shuffle the append order:
// any delivery schedule a coordinator can produce must merge to the same
// artifact.
func TestShardMergeEquivalence(t *testing.T) {
	o := shardTestOptions(t)
	direct, err := RunDetection(o)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)

	// Two shards split mid-app, as a two-worker dispatch would.
	checkShardMerge(t, o, want, []ShardSpec{
		{Ranges: []ShardRange{{App: "fft", Lo: 0, Hi: 4}, {App: "lu", Lo: 0, Hi: 2}}},
		{Ranges: []ShardRange{{App: "lu", Lo: 2, Hi: 4}}},
	})

	injections := o.withDefaults().Injections
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var pieces []ShardRange
		for _, a := range o.Apps {
			for lo := 0; lo < injections; {
				hi := lo + 1 + rng.IntN(injections-lo)
				pieces = append(pieces, ShardRange{App: a.Name, Lo: lo, Hi: hi})
				lo = hi
			}
		}
		rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
		var specs []ShardSpec
		for len(pieces) > 0 {
			n := min(1+rng.IntN(3), len(pieces))
			specs = append(specs, ShardSpec{Ranges: pieces[:n]})
			pieces = pieces[n:]
		}
		for _, spec := range specs {
			if rng.IntN(3) == 0 {
				specs = append(specs, spec)
			}
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkShardMerge(t, o, want, specs) })
	}
}

// checkShardMerge executes specs, appends their cells to a fresh journal in
// order, and requires the journal-backed campaign to equal want byte for
// byte with every run a journal hit.
func checkShardMerge(t *testing.T, o Options, want []byte, specs []ShardSpec) {
	t.Helper()
	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "merge.cordckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, spec := range specs {
		cells, err := ExecuteDetectShard(o, spec)
		if err != nil {
			t.Fatalf("shard %+v: %v", spec.Ranges, err)
		}
		for _, c := range cells {
			if err := j.Append(c.Key, c.Data); err != nil {
				t.Fatalf("Append(%s): %v", c.Key, err)
			}
		}
	}

	merged := o
	merged.Checkpoint = j
	res, err := RunDetection(merged)
	if err != nil {
		t.Fatalf("merged campaign: %v", err)
	}
	wantRuns := len(o.Apps) * (1 + o.withDefaults().Injections)
	if j.Hits() != wantRuns {
		t.Fatalf("merged campaign hit the journal %d times, want %d (no local simulation)", j.Hits(), wantRuns)
	}
	got, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged results of %d shards differ from direct run:\n direct %s\n merged %s", len(specs), want, got)
	}
}

// TestOptionsFromMetaRoundTrip: wire metadata reconstructs Options whose
// normalized meta and fingerprint equal the originals — the property that
// lets coordinator and worker agree on run identity without sharing code
// versions, just bytes.
func TestOptionsFromMetaRoundTrip(t *testing.T) {
	o := shardTestOptions(t)
	meta := o.Meta()
	back, err := OptionsFromMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Fingerprint(), o.Fingerprint(); got != want {
		t.Fatalf("fingerprint %s after round trip, want %s", got, want)
	}
	if got, want := back.Meta(), meta; got.BaseSeed != want.BaseSeed || got.Injections != want.Injections {
		t.Fatalf("meta %+v after round trip, want %+v", got, want)
	}
	// Zero fields mean "default", matching the CLI: an all-zero meta is the
	// default campaign.
	dflt, err := OptionsFromMeta(CampaignMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dflt.Fingerprint(), (Options{}).Fingerprint(); got != want {
		t.Fatalf("zero meta fingerprint %s, want default campaign's %s", got, want)
	}
}

// TestOptionsFromMetaRejects: out-of-domain wire metadata fails fast.
func TestOptionsFromMetaRejects(t *testing.T) {
	cases := []CampaignMeta{
		{Scale: -1},
		{Threads: -4},
		{Injections: -2},
		{Threads: 1 << 16},
		{Apps: []string{"nonesuch"}},
	}
	for _, m := range cases {
		if _, err := OptionsFromMeta(m); err == nil {
			t.Errorf("OptionsFromMeta(%+v): expected error", m)
		}
	}
}

// TestExecuteDetectShardRejectsBadSpecs: out-of-domain shards are ErrBadShard
// (the endpoint's 400), not panics or silent truncation.
func TestExecuteDetectShardRejectsBadSpecs(t *testing.T) {
	o := shardTestOptions(t)
	cases := []ShardSpec{
		{},
		{Ranges: []ShardRange{{App: "nonesuch", Lo: 0, Hi: 1}}},
		{Ranges: []ShardRange{{App: "fft", Lo: -1, Hi: 1}}},
		{Ranges: []ShardRange{{App: "fft", Lo: 0, Hi: 5}}}, // Injections is 4
		{Ranges: []ShardRange{{App: "fft", Lo: 2, Hi: 2}}},
		{Ranges: []ShardRange{{App: "fft", Lo: 3, Hi: 1}}},
	}
	for i, spec := range cases {
		if _, err := ExecuteDetectShard(o, spec); !errors.Is(err, ErrBadShard) {
			t.Errorf("case %d: error %v, want ErrBadShard", i, err)
		}
	}
}

// TestExecuteDetectShardInterrupt: a pre-closed Interrupt drains the shard
// before any run dispatches, surfacing ErrInterrupted like every other
// campaign entry point.
func TestExecuteDetectShardInterrupt(t *testing.T) {
	o := shardTestOptions(t)
	stop := make(chan struct{})
	close(stop)
	o.Interrupt = stop
	o.Procs = 1
	if _, err := ExecuteDetectShard(o, fullSpec(o)); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error %v, want ErrInterrupted", err)
	}
}
