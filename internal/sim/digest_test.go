package sim_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"cord/internal/core"
	"cord/internal/sim"
	"cord/internal/trace"
	"cord/internal/workload"
)

// digestObserver folds everything the engine tells its observers — every
// access with all of its fields, every ThreadDone and Migrate call, and (in
// replay) every OnEpoch index — into one running FNV-1a hash, so a single
// number pins the exact access stream of a run.
type digestObserver struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigestObserver() *digestObserver { return &digestObserver{h: fnv.New64a()} }

func (d *digestObserver) put(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digestObserver) Name() string { return "digest" }

func (d *digestObserver) OnAccess(a trace.Access) trace.Report {
	d.put('A', a.Seq, uint64(a.Thread), uint64(a.Proc), uint64(a.Addr), uint64(a.Kind),
		uint64(a.Class), a.Instr, uint64(a.Instrs))
	return trace.Report{}
}

func (d *digestObserver) Migrate(thread, proc int, instr uint64) {
	d.put('M', uint64(thread), uint64(proc), instr)
}

func (d *digestObserver) ThreadDone(thread int, totalInstr uint64) {
	d.put('D', uint64(thread), totalInstr)
}

func (d *digestObserver) Finish() { d.put('F') }

func (d *digestObserver) onEpoch(idx int) { d.put('E', uint64(idx)) }

// sum folds the run's Result into the stream digest.
func (d *digestObserver) sum(res sim.Result) uint64 {
	hung := uint64(0)
	if res.Hung {
		hung = 1
	}
	d.put('R', res.Cycles, res.Ops, hung, uint64(int64(res.InjectedThread)), res.InjectedThreadNth)
	d.put(res.ReadHash...)
	d.put(res.ThreadInstr...)
	return d.h.Sum64()
}

// engineDigests are the access-stream digests of every Table 1 application
// at scale 1, 4 threads, in the four engine modes of digestRuns. They pin
// the engine's exact behaviour: any change to scheduling, the access stream
// or the Result of any mode changes a digest.
var engineDigests = map[string][4]uint64{
	"barnes":    {0x1c73c52743fabba8, 0x91d2073c98449502, 0x21f6579bf93d6108, 0xd7cff71465de5fe4},
	"cholesky":  {0x27e5b1fe9fd15d09, 0x819eeead16774a1e, 0xcaa47928b1887585, 0x1916c1658ee88dd9},
	"fft":       {0x855e708a84406efa, 0x2af3315c0156ffdf, 0x301f901870f8e005, 0xfb6915e52cfaae95},
	"fmm":       {0x7b72be8c3c3537bb, 0xb59cc7c9fbbd2c5f, 0xe22ccbc0c86e16e0, 0x646185936e13fea},
	"lu":        {0x59e03a8cc79ba2bf, 0xfd1568a886a87140, 0x60ab41b552a53050, 0x2c2a417ca297cf73},
	"ocean":     {0xc70516e692b6b276, 0x452f51826ceec54b, 0x24962703b258d2d5, 0x2761a2d7c10d992d},
	"radiosity": {0x24415a5819e103d6, 0xf9f517a0d257c7c7, 0x2871e20ebc6bd55, 0x97ca2c70a59e4345},
	"radix":     {0x7f35c6f8b76f6d, 0x45c7c9010cc8c000, 0xa9f2ef530247b6b1, 0x60803357ada98b4e},
	"raytrace":  {0x23079737fe97d2f2, 0x2911d7c5aa90ba0d, 0x6a9950c261c4d18f, 0xa6318165c7149cc6},
	"volrend":   {0x48095908526787d8, 0xec87a16798f2599b, 0xd5af4d2e6c7a4a1a, 0x66b788c0b26db523},
	"water-n2":  {0x67f066bd85fb1334, 0x58bd77d3d6efac74, 0x8691a8bc3169183d, 0x64b15b215ecefc71},
	"water-sp":  {0x6a994b0cb782c368, 0xd89f6556605f72c3, 0xfd3d3e3a8d14525c, 0x5e138d9b29dcb685},
}

// digestRuns executes app in the engine's four modes and returns one digest
// per mode: a jittered recording run (with the CORD order recorder
// attached), a run with one sync instance removed (InjectSkip), a run with
// thread migration (MigrateEvery), and a log-driven replay of the recording
// run's own order log.
func digestRuns(t *testing.T, app workload.App) [4]uint64 {
	t.Helper()
	var out [4]uint64
	const seed, jitter = 3, 7

	rec := core.New(core.Config{Threads: 4, D: 16, Record: true})
	d := newDigestObserver()
	res, err := sim.New(sim.Config{
		Seed: seed, Jitter: jitter, Observers: []trace.Observer{rec, d}, Primary: rec,
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	out[0] = d.sum(res)
	recorded := res

	d = newDigestObserver()
	res, err = sim.New(sim.Config{
		Seed: seed, Jitter: jitter, InjectSkip: 5, Observers: []trace.Observer{d},
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if res.InjectedThread < 0 {
		t.Fatal("inject: no sync instance was removed")
	}
	out[1] = d.sum(res)

	d = newDigestObserver()
	res, err = sim.New(sim.Config{
		Seed: seed, Jitter: jitter, MigrateEvery: 3, Observers: []trace.Observer{d},
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	out[2] = d.sum(res)

	epochs, err := rec.Log().Schedule(4)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	d = newDigestObserver()
	res, err = sim.New(sim.Config{
		Seed: seed, ReplayEpochs: epochs, Observers: []trace.Observer{d}, OnEpoch: d.onEpoch,
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Hung || res.Ops != recorded.Ops {
		t.Fatalf("replay: hung=%v ops=%d, recorded %d", res.Hung, res.Ops, recorded.Ops)
	}
	out[3] = d.sum(res)

	// The same schedule arriving through a ReplayFeed in small appends from
	// another goroutine must replay identically, OnEpoch indices included.
	feed := sim.NewReplayFeed()
	go func() {
		for lo := 0; lo < len(epochs); lo += 7 {
			feed.Append(epochs[lo:min(lo+7, len(epochs))]...)
		}
		feed.CloseFeed()
	}()
	d = newDigestObserver()
	res, err = sim.New(sim.Config{
		Seed: seed, ReplayFeed: feed, Observers: []trace.Observer{d}, OnEpoch: d.onEpoch,
	}, app.Build(1, 4)).Run()
	if err != nil {
		t.Fatalf("feed replay: %v", err)
	}
	if got := d.sum(res); got != out[3] {
		t.Errorf("feed replay digest %#x, batch replay %#x", got, out[3])
	}
	return out
}

// TestEngineAccessStreamDigests: every Table 1 application, in every engine
// mode, reproduces its committed access-stream digest.
func TestEngineAccessStreamDigests(t *testing.T) {
	for _, app := range workload.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			got := digestRuns(t, app)
			want, ok := engineDigests[app.Name]
			if !ok {
				t.Fatalf("no committed digest; got %#v", got)
			}
			for mode, name := range []string{"record", "inject", "migrate", "replay"} {
				if got[mode] != want[mode] {
					t.Errorf("%s: digest %#x, want %#x", name, got[mode], want[mode])
				}
			}
		})
	}
}
