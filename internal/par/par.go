// Package par provides the worker-pool primitives the compute stages share:
// range splitting, dynamic (work-stealing) item scheduling with per-worker
// state, and the weighted task list (List) on which a prove runs POLY and
// GZKP's load-grouped, heaviest-first bucket dispatch (§4.2) together.
//
// Every pool is cancellable and panic-safe: it takes a context checked at
// chunk/item boundaries, the first worker error cancels the remaining work,
// and a worker panic is recovered into a *resilience.PanicError instead of
// crashing the process. The item pools are generic over the per-worker
// scratch type S; a nil mkState gives every worker the zero S (stateless
// callers use struct{}).
package par

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"gzkp/internal/resilience"
	"gzkp/internal/telemetry"
)

// account notes one pool dispatch in the ctx tracer's registry (no-op
// without one): how many work units the stages fan out, how many pools
// were spun up, and the widest pool seen. One context lookup plus a few
// atomic ops per pool spin-up — never per item.
func account(ctx context.Context, units, workers int) {
	reg := telemetry.FromContext(ctx).Registry()
	if reg == nil {
		return
	}
	reg.Counter("par.units").Add(int64(units))
	reg.Counter("par.dispatches").Add(1)
	reg.Gauge("par.max_workers").Max(float64(workers))
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

// newState builds one worker's scratch; a nil mkState yields the zero S.
func newState[S any](mkState func() S) (st S) {
	if mkState != nil {
		st = mkState()
	}
	return st
}

// RangeErr splits [0, n) into contiguous chunks across workers, handed
// out as ItemsErr items. Each chunk is a cancellation point; fn's first
// error cancels the remaining chunks.
func RangeErr(ctx context.Context, n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	chunk := (n + Workers(workers) - 1) / Workers(workers)
	return ItemsErr(ctx, (n+chunk-1)/chunk, workers, nil, func(_ struct{}, c int) error {
		return fn(c*chunk, min((c+1)*chunk, n))
	})
}

// ItemsErr schedules n independent items dynamically over a pool of
// workers, the caller among them, handing them out in index order; mkState
// builds per-worker scratch once per worker. Item boundaries are
// cancellation points and the first error (or recovered panic) cancels
// the remaining items; external cancellation is reported as ctx.Err()
// when no item failed first. Dynamic dispatch over items sorted
// heaviest-first is the CPU analogue of GZKP's fine-grained task mapping:
// stragglers are started first, so no worker is left holding a heavy task
// at the tail.
func ItemsErr[S any](ctx context.Context, n, workers int, mkState func() S, fn func(state S, item int) error) error {
	workers = min(Workers(workers), n)
	if n <= 0 {
		return ctx.Err()
	}
	account(ctx, n, workers)
	if workers == 1 { // no pool: nothing to cancel or join
		return recovering(func() error {
			st := newState(mkState)
			for i := 0; i < n; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := fn(st, i); err != nil {
					return err
				}
			}
			return nil
		})
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	work := func() {
		err := recovering(func() error {
			st := newState(mkState)
			for i := int(next.Add(1)) - 1; i < n && gctx.Err() == nil; i = int(next.Add(1)) - 1 {
				if err := fn(st, i); err != nil {
					return err
				}
			}
			return nil
		})
		mu.Lock()
		if err != nil && first == nil {
			first = err
			cancel()
		}
		mu.Unlock()
	}
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
