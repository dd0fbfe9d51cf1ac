package par

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// List is a task list run on a fixed set of workers: every worker takes
// the heaviest ready task (ties in push order), and a running task may push
// more. Fan gives a list its joins — a join runs on the worker that
// finishes a fan's last task — so stages chain without a barrier between
// them: the first stage's stragglers overlap the next stage's tasks. This
// is the CPU analogue of GZKP's task-granular scheduling (§4.2): one list
// of work units from several kernels, balanced by weight rather than by
// kernel boundaries.
//
// Like the pools, a list is cancellable and panic-safe: a task's error or
// recovered panic cancels the list's context and stops the workers at
// their next task boundary.
type List struct {
	workers int
	cancel  context.CancelFunc
	mu      sync.Mutex
	wake    sync.Cond
	ready   []task // max-heap: weight, then push order
	pending int    // tasks pushed and not yet returned
	seq     int64
	err     error
}

type task struct {
	weight, seq int64
	f           *fan
	i           int
}

// fan is one Fan call: left counts its tasks still to return.
type fan struct {
	left atomic.Int64
	run  func(w, i int) error
	join func(w int) error
}

// Run builds a list, calls seed with the list's context (cancelled on the
// first task error) to push its first tasks, and runs every task pushed
// until none is ready or running, on workers goroutines (the caller is
// worker 0). Tasks are told their worker index w ∈ [0, Workers()), so they
// may keep per-worker scratch indexed by it.
func Run(ctx context.Context, workers int, seed func(ctx context.Context, l *List) error) error {
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	l := &List{workers: Workers(workers), cancel: cancel, ready: make([]task, 0, 64)}
	l.wake.L = &l.mu
	if err := recovering(func() error { return seed(gctx, l) }); err != nil {
		return err
	}
	account(ctx, l.pending, l.workers)
	stop := context.AfterFunc(gctx, func() {
		l.mu.Lock()
		l.wake.Broadcast()
		l.mu.Unlock()
	})
	defer stop()
	var wg sync.WaitGroup
	for w := 1; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.work(gctx, w)
		}()
	}
	l.work(gctx, 0)
	wg.Wait()
	if l.err != nil {
		return l.err
	}
	return ctx.Err()
}

// Workers returns the number of workers the list runs on.
func (l *List) Workers() int { return l.workers }

// Push adds one task of the given weight.
func (l *List) Push(weight int64, run func(w int) error) {
	l.Fan(1, func(int) int64 { return weight }, func(w, _ int) error { return run(w) }, nil)
}

// Fan adds n tasks, task i of weight weight(i) running run(w, i); once all
// n have returned without error, join (if not nil) runs on the worker that
// finished the last of them. With n = 0, join is pushed as a task of its
// own.
func (l *List) Fan(n int, weight func(i int) int64, run func(w, i int) error, join func(w int) error) {
	if n == 0 {
		if join != nil {
			l.Push(math.MaxInt64, join)
		}
		return
	}
	f := &fan{run: run, join: join}
	f.left.Store(int64(n))
	l.mu.Lock()
	for i := 0; i < n; i++ {
		l.push(task{weight: weight(i), seq: l.seq, f: f, i: i})
		l.seq++
	}
	l.pending += n
	l.mu.Unlock()
	l.wake.Broadcast()
}

// work is worker w's loop: take the heaviest ready task, run it (and its
// fan's join if it was the last), repeat until the list is drained, failed
// or cancelled.
func (l *List) work(ctx context.Context, w int) {
	for {
		l.mu.Lock()
		for len(l.ready) == 0 && l.pending > 0 && l.err == nil && ctx.Err() == nil {
			l.wake.Wait()
		}
		if len(l.ready) == 0 || l.err != nil || ctx.Err() != nil {
			l.mu.Unlock()
			return
		}
		t := l.pop()
		l.mu.Unlock()
		err := recovering(func() error {
			if err := t.f.run(w, t.i); err != nil {
				return err
			}
			if t.f.left.Add(-1) == 0 && t.f.join != nil {
				return t.f.join(w)
			}
			return nil
		})
		l.mu.Lock()
		l.pending--
		if err != nil && l.err == nil {
			l.err = err
			l.cancel()
		}
		if l.pending == 0 || err != nil {
			l.wake.Broadcast()
		}
		l.mu.Unlock()
	}
}

func (a task) before(b task) bool {
	return a.weight > b.weight || (a.weight == b.weight && a.seq < b.seq)
}

// push and pop keep l.ready a binary heap; l.mu is held.
func (l *List) push(t task) {
	h := append(l.ready, t)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	l.ready = h
}

func (l *List) pop() task {
	h := l.ready
	top := h[0]
	last := len(h) - 1
	h[0], h[last] = h[last], task{} // the vacated slot keeps no fan alive
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	l.ready = h
	return top
}
