package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"cord/internal/memsys"
)

// panicProg runs threads that each do a few reads; thread panicAt[t] >= 0
// panics after that many reads (0 panics before its first Env call).
func panicProg(panicAt []int) Program {
	return Program{
		Name:    "panics",
		Threads: len(panicAt),
		Body: func(t int, env *Env) {
			for i := 0; i < 8; i++ {
				if i == panicAt[t] {
					panic("boom")
				}
				env.Read(memsys.Addr(uint64(t+1) * memsys.LineBytes))
			}
		},
	}
}

// TestThreadPanicFailsRun: a Body that panics, before its first Env call or
// in the middle of the run, makes Run fail with the thread's id.
func TestThreadPanicFailsRun(t *testing.T) {
	for _, c := range []struct {
		name    string
		panicAt []int
		want    string
	}{
		{"before first call", []int{-1, 0, -1}, "sim: thread 1 panicked: boom"},
		{"mid-run", []int{-1, -1, 5}, "sim: thread 2 panicked: boom"},
	} {
		_, err := New(Config{Seed: 1, Jitter: 3}, panicProg(c.panicAt)).Run()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Run returned %v, want %q", c.name, err, c.want)
		}
	}
}

// TestStartupPanicLowestIDWins: when several threads panic before their
// first Env call, the error names the lowest thread id, every time.
func TestStartupPanicLowestIDWins(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, err := New(Config{Seed: uint64(i)}, panicProg([]int{-1, 0, -1, 0})).Run()
		if err == nil || !strings.HasPrefix(err.Error(), "sim: thread 1 panicked") {
			t.Fatalf("run %d: Run returned %v, want thread 1's panic", i, err)
		}
	}
}

// waitGoroutines waits until the goroutine count falls back to before.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after %s", before, runtime.NumGoroutine(), what)
}

// TestAbortLeaksNoGoroutines: a hung run (one thread parked forever) and a
// canceled run both release every simulated thread.
func TestAbortLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	al := memsys.NewAllocator()
	flag := NewFlag(al)
	hang := Program{
		Name:    "hang",
		Threads: 2,
		Body: func(t int, env *Env) {
			if t == 1 {
				flag.WaitAtLeast(env, 1) // never set
			}
		},
	}
	for i := 0; i < 10; i++ {
		res, err := New(Config{Seed: uint64(i)}, hang).Run()
		if err != nil || !res.Hung {
			t.Fatalf("hung run: res.Hung=%v err=%v", res.Hung, err)
		}
	}
	waitGoroutines(t, before, "hung runs")

	for i := 0; i < 10; i++ {
		cancel := make(chan struct{})
		close(cancel)
		if _, err := New(Config{Seed: uint64(i), Cancel: cancel}, spinProg(4, 1000)).Run(); err == nil {
			t.Fatal("canceled run returned no error")
		}
	}
	waitGoroutines(t, before, "canceled runs")
}

// BenchmarkEngineHandoff prices the scheduler's thread handoff: one
// iteration is a complete run of two threads ping-ponging a lock-protected
// counter (64 rounds each), with no observer attached.
func BenchmarkEngineHandoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, ctr := counterProg(2, 64)
		res, err := New(Config{Seed: uint64(i + 1), Procs: 2}, prog).Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Mem.Load(ctr) != 128 {
			b.Fatal("lost updates")
		}
	}
}
