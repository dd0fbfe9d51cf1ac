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

// runGroup spawns `workers` goroutines running body and joins them. The
// first error (or recovered panic) cancels the group's context; external
// cancellation is reported as ctx.Err() when no worker failed first.
func runGroup(ctx context.Context, workers int, body func(ctx context.Context) error) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	record := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
			cancel()
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := recovering(func() error { return body(gctx) }); err != nil {
				record(err)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// newState builds one worker's scratch; a nil mkState yields the zero S.
func newState[S any](mkState func() S) (st S) {
	if mkState != nil {
		st = mkState()
	}
	return st
}

// RangeErr splits [0, n) into contiguous chunks across workers. Each chunk
// is a cancellation point; fn's first error cancels the remaining chunks.
func RangeErr(ctx context.Context, n, workers int, fn func(lo, hi int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return ctx.Err()
	}
	account(ctx, n, workers)
	if workers <= 1 {
		return recovering(func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fn(0, n)
		})
	}
	chunk := (n + workers - 1) / workers
	var next int64
	return runGroup(ctx, workers, func(gctx context.Context) error {
		for {
			if gctx.Err() != nil {
				return nil // group unwinding; runGroup reports the cause
			}
			lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
			if lo >= n {
				return nil
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
	})
}

// ItemsErr schedules n independent items dynamically over a pool, handing
// them out in index order; mkState builds per-worker scratch once per
// worker. Item boundaries are cancellation points and the first error
// cancels the remaining items. Dynamic dispatch over items sorted
// heaviest-first is the CPU analogue of GZKP's fine-grained task mapping:
// stragglers are started first, so no worker is left holding a heavy task
// at the tail.
func ItemsErr[S any](ctx context.Context, n, workers int, mkState func() S, fn func(state S, item int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return ctx.Err()
	}
	account(ctx, n, workers)
	if workers <= 1 {
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
	var next int64
	return runGroup(ctx, workers, func(gctx context.Context) error {
		st := newState(mkState)
		for {
			if gctx.Err() != nil {
				return nil
			}
			pos := int(atomic.AddInt64(&next, 1)) - 1
			if pos >= n {
				return nil
			}
			if err := fn(st, pos); err != nil {
				return err
			}
		}
	})
}
