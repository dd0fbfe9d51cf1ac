package par

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// List is one scope of a task list run on a fixed set of workers: the
// runtime of its worker count, one long-lived list per count whose workers
// live for the process. Every worker takes the ready task of the oldest
// scope first, then the heaviest, then in push order, and a running task
// may push more. Fan gives a scope its joins — a join runs on the worker
// that finishes a fan's last task — so stages chain without a barrier
// between them: the first stage's stragglers overlap the next stage's
// tasks, and a newer scope's tasks fill what an older one leaves idle. This
// is the CPU analogue of GZKP's task-granular scheduling (§4.2): one list
// of work units from several kernels, balanced by weight rather than by
// kernel boundaries.
//
// Like the pools, a scope is cancellable and panic-safe: a task's error or
// recovered panic cancels its own scope's context and drops the scope's
// queued tasks; other scopes run on.
type List struct {
	rt     *taskRuntime
	order  int64 // scope age: lower runs first
	cancel context.CancelFunc
	done   chan struct{} // closed once pending reaches 0
	// Guarded by rt.mu.
	pending int // the seed and tasks pushed, not yet returned or dropped
	stopped bool
	err     error
}

// taskRuntime is the long-lived task list of one worker count.
type taskRuntime struct {
	workers int
	mu      sync.Mutex
	wake    sync.Cond
	ready   []task // heap: scope age, then weight, then push order
	seq     int64
	scopes  int64
	scratch []map[any]any // per worker, touched only by that worker's task
}

type task struct {
	scope, weight, seq int64
	l                  *List
	f                  *fan
	i                  int
}

// fan is one Fan call: left counts its tasks still to return.
type fan struct {
	left atomic.Int64
	run  func(w, i int) error
	join func(w int) error
}

// ErrNested is what Run returns under a context of a running scope: a task
// that waited for a scope on its own runtime could hold the worker that
// scope needs.
var ErrNested = errors.New("par: Run inside a task list scope")

type scopeKey struct{}

var (
	runtimesMu sync.Mutex
	runtimes   = map[int]*taskRuntime{}
)

// runtimeFor returns the runtime of the given worker count, starting its
// workers on first use.
func runtimeFor(workers int) *taskRuntime {
	runtimesMu.Lock()
	defer runtimesMu.Unlock()
	rt := runtimes[workers]
	if rt == nil {
		rt = &taskRuntime{workers: workers, ready: make([]task, 0, 64), scratch: make([]map[any]any, workers)}
		rt.wake.L = &rt.mu
		for w := range workers {
			rt.scratch[w] = map[any]any{}
			go rt.work(w)
		}
		runtimes[workers] = rt
	}
	return rt
}

// Run opens a scope on the runtime of workers workers, calls seed with the
// scope's context (cancelled on the scope's first task error) to push its
// first tasks, and returns once every task of the scope has run, or, after
// a failure or cancellation, once every task of it that started has
// returned. Tasks are told their worker index w ∈ [0, workers), so they
// may keep per-worker scratch (Scratch). Under a scope's context Run
// returns ErrNested.
func Run(ctx context.Context, workers int, seed func(ctx context.Context, l *List) error) error {
	if ctx.Value(scopeKey{}) != nil {
		return ErrNested
	}
	if err := ctx.Err(); err != nil {
		return err // a cancelled caller seeds nothing
	}
	rt := runtimeFor(Workers(workers))
	gctx, cancel := context.WithCancel(context.WithValue(ctx, scopeKey{}, rt))
	defer cancel()
	l := &List{rt: rt, pending: 1, cancel: cancel, done: make(chan struct{})}
	rt.mu.Lock()
	l.order = rt.scopes
	rt.scopes++
	rt.mu.Unlock()
	stop := context.AfterFunc(gctx, func() {
		rt.mu.Lock()
		l.stop()
		rt.mu.Unlock()
	})
	defer stop()
	err := recovering(func() error { return seed(gctx, l) })
	rt.mu.Lock()
	units := l.pending - 1
	l.end(err)
	rt.mu.Unlock()
	account(ctx, units, rt.workers)
	<-l.done
	if l.err != nil {
		return l.err
	}
	return ctx.Err()
}

// Scratch returns worker w's scratch: a map the runtime keeps for the
// worker across scopes, for the task running on w alone to use. Key it by
// a value of a package's own type.
func (l *List) Scratch(w int) map[any]any { return l.rt.scratch[w] }

// Push adds one task of the given weight.
func (l *List) Push(weight int64, run func(w int) error) {
	l.Fan(1, func(int) int64 { return weight }, func(w, _ int) error { return run(w) }, nil)
}

// Fan adds n tasks, task i of weight weight(i) running run(w, i); once all
// n have returned without error, join (if not nil) runs on the worker that
// finished the last of them. With n = 0, join is pushed as a task of its
// own. A stopped scope takes no more tasks.
func (l *List) Fan(n int, weight func(i int) int64, run func(w, i int) error, join func(w int) error) {
	if n == 0 {
		if join != nil {
			l.Push(math.MaxInt64, join)
		}
		return
	}
	f := &fan{run: run, join: join}
	f.left.Store(int64(n))
	rt := l.rt
	rt.mu.Lock()
	if l.stopped {
		rt.mu.Unlock()
		return
	}
	for i := 0; i < n; i++ {
		rt.push(task{scope: l.order, weight: weight(i), seq: rt.seq, l: l, f: f, i: i})
		rt.seq++
	}
	l.pending += n
	rt.mu.Unlock()
	rt.wake.Broadcast()
}

// end accounts one of l's tasks, or its seed, returning err; rt.mu is held.
func (l *List) end(err error) {
	if err != nil && l.err == nil {
		l.err = err
		l.cancel()
		l.stop()
	}
	l.release(1)
}

// stop drops l's queued tasks and refuses its later pushes; rt.mu is held.
func (l *List) stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	h, dropped := l.rt.ready[:0], 0
	for _, t := range l.rt.ready {
		if t.l == l {
			dropped++
		} else {
			h = append(h, t)
		}
	}
	clear(l.rt.ready[len(h):]) // the vacated slots keep no fan alive
	l.rt.ready = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		l.rt.down(i)
	}
	l.release(dropped)
}

func (l *List) release(n int) {
	if l.pending -= n; n > 0 && l.pending == 0 {
		close(l.done)
	}
}

// work is worker w's loop: take the first ready task, run it (and its
// fan's join if it was the last), repeat for the life of the process.
func (rt *taskRuntime) work(w int) {
	rt.mu.Lock()
	for {
		for len(rt.ready) == 0 {
			rt.wake.Wait()
		}
		t := rt.pop()
		rt.mu.Unlock()
		err := recovering(func() error {
			if err := t.f.run(w, t.i); err != nil {
				return err
			}
			if t.f.left.Add(-1) == 0 && t.f.join != nil {
				return t.f.join(w)
			}
			return nil
		})
		rt.mu.Lock()
		t.l.end(err)
	}
}

func (a task) before(b task) bool {
	if a.scope != b.scope {
		return a.scope < b.scope
	}
	return a.weight > b.weight || (a.weight == b.weight && a.seq < b.seq)
}

// push, pop and down keep rt.ready a binary heap; rt.mu is held.
func (rt *taskRuntime) push(t task) {
	h := append(rt.ready, t)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	rt.ready = h
}

func (rt *taskRuntime) pop() task {
	h := rt.ready
	top := h[0]
	last := len(h) - 1
	h[0], h[last] = h[last], task{} // the vacated slot keeps no fan alive
	rt.ready = h[:last]
	rt.down(0)
	return top
}

func (rt *taskRuntime) down(i int) {
	h := rt.ready
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
