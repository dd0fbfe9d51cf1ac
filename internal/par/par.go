// Package par is the prover runtime: one long-lived weighted task list per
// worker count (List), whose scopes run a prove's POLY beside GZKP's bucket
// dispatch (§4.2), and the fans (ItemsErr, RangeErr) that run every parallel
// loop as tasks of its caller's scope; its only goroutines are the
// runtimes' workers. Contexts are checked at task, item and chunk
// boundaries, the first error stops its scope's or fan's remaining work,
// and a panic is recovered into a *resilience.PanicError.
package par

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"gzkp/internal/resilience"
	"gzkp/internal/telemetry"
)

// account notes one scope or fan in the ctx tracer's registry (no-op
// without one): its work units and width. Never per item.
func account(ctx context.Context, units, workers int) {
	if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
		reg.Counter("par.units").Add(int64(units))
		reg.Counter("par.dispatches").Add(1)
		reg.Gauge("par.max_workers").Max(float64(workers))
	}
}

// Workers normalizes a worker-count hint.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// recovering runs fn, converting a panic into a *resilience.PanicError.
func recovering(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*resilience.PanicError); ok {
				err = pe
				return
			}
			err = &resilience.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// RangeErr splits [0, n) into Workers(workers) contiguous chunks, run as
// ItemsErr items. Each chunk is a cancellation point; fn's first error
// stops the remaining chunks.
func RangeErr(ctx context.Context, n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	chunk := (n + Workers(workers) - 1) / Workers(workers)
	return ItemsErr(ctx, (n+chunk-1)/chunk, workers, nil, func(_ struct{}, c int) error {
		return fn(c*chunk, min((c+1)*chunk, n))
	})
}

// ItemsErr runs fn over n items as a fan on the runtime: under a scope's
// context it pushes min(workers, scope width, n)−1 helper tasks onto that
// scope (workers ≤ 0: the scope's width), ranked ahead of its other ready
// tasks; outside a scope it does so inside a Run of workers. The caller and
// each helper that starts claim indices in order from one counter, each
// with its own mkState scratch (nil: the zero S), made up front so a fan's
// allocations do not depend on how many helpers start. The caller runs
// only its own items, and once the last index is claimed the fan's queued
// helpers are dropped, so it waits for at most one in-flight item. The
// first error or recovered panic stops the claims and is returned (a
// helper never fails the scope itself); else a cancellation returns
// ctx.Err(). Over items sorted heaviest first, stragglers start first.
func ItemsErr[S any](ctx context.Context, n, workers int, mkState func() S, fn func(state S, item int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	l, ok := ctx.Value(scopeKey{}).(*List)
	if !ok {
		return Run(ctx, workers, func(ctx context.Context, _ *List) error {
			return ItemsErr(ctx, n, workers, mkState, fn)
		})
	}
	h := min(l.rt.workers, n)
	if workers > 0 {
		h = min(h, workers)
	}
	account(ctx, n, h)
	if h == 1 { // no helper: the fan lives on the caller's stack
		var c claims
		var st S
		if mkState != nil {
			st = mkState()
		}
		claim(ctx, &c, &l.rt.mu, n, st, fn)
		return cmp.Or(c.err, ctx.Err())
	}
	states := make([]S, h)
	for j := 0; mkState != nil && j < h; j++ {
		states[j] = mkState()
	}
	c := &claims{done: make(chan struct{})}
	c.left.Store(int64(h)) // the helpers not returned or dropped, and the caller
	c.run, c.owned = func(_, i int) error { claim(ctx, c, &l.rt.mu, n, states[i+1], fn); return nil }, true
	c.join = func(int) error { close(c.done); return nil }
	l.fan(&c.fan, h-1, func(int) int64 { return math.MaxInt64 })
	claim(ctx, c, &l.rt.mu, n, states[0], fn)
	l.rt.mu.Lock()
	dropped := l.rt.drop(func(t task) bool { return t.f == &c.fan })
	l.release(dropped)
	l.rt.mu.Unlock()
	if c.left.Add(-int64(dropped)-1) == 0 {
		close(c.done)
	}
	<-c.done
	return cmp.Or(c.err, ctx.Err())
}

// claim is one claim loop of the fan c: items in index order until none is
// left or one fails, whose error stops the fan's claims.
func claim[S any](ctx context.Context, c *claims, mu *sync.Mutex, n int, st S, fn func(S, int) error) {
	err := recovering(func() error {
		for i := int(c.next.Add(1)) - 1; i < n; i = int(c.next.Add(1)) - 1 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(st, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		c.next.Store(int64(n))
		mu.Lock()
		c.err = cmp.Or(c.err, err)
		mu.Unlock()
	}
}

// claims is one ItemsErr fan: its helpers and what they share with the caller.
type claims struct {
	fan
	next atomic.Int64
	done chan struct{} // closed when the caller and every helper are through
	err  error         // the first error; guarded by rt.mu
}
