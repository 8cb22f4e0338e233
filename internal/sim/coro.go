//go:build go1.23

// The build constraint gives this one file Go 1.23 language semantics, which
// iter.Pull requires, while go.mod stays at go 1.22: raising the module's go
// directive would make builds with GOFLAGS=-mod=mod rewrite the go.mod of
// every module that replaces this one (it would gain a go 1.23 directive and
// a toolchain line). Building the package therefore needs a Go 1.23 or newer
// toolchain.

package sim

import "iter"

// coroutine runs body as a coroutine: each next() call runs body until it
// calls yield (next reports true) or returns (next reports false); stop
// makes a suspended yield return false and runs body to its end. Both run
// body synchronously on their caller's behalf, so the engine and its
// simulated threads never execute at the same time.
func coroutine(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
