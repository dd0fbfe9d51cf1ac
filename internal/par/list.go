package par

import (
	"cmp"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// List is one scope on the runtime of its worker count: one long-lived task
// list per count, whose workers live for the process and take the ready
// task of the oldest scope first, then the heaviest, then in push order. A
// running task may push more, and a fan's join runs on the worker that
// finishes its last task, so stages chain without a barrier: stragglers
// overlap the next stage, and a newer scope fills what an older one leaves
// idle — GZKP's task-granular scheduling (§4.2), balanced by weight rather
// than by kernel boundaries. A task's error or recovered panic cancels its
// own scope and drops that scope's queued tasks; other scopes run on.
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
	scopes  atomic.Int64
	scratch []map[any]any // per worker, touched only by that worker's task
}

type task struct {
	scope, weight, seq int64
	l                  *List
	f                  *fan
	i                  int
}

// fan is one Fan call: left counts its tasks still to return. An
// ItemsErr fan's helpers are owned: a stopped scope still takes them, and
// only their caller drops them.
type fan struct {
	left  atomic.Int64
	run   func(w, i int) error
	join  func(w int) error
	owned bool
}

// ErrNested is what Run returns under a running scope's context: a task
// waiting for a scope on its own runtime could hold the worker it needs.
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
	l := &List{rt: rt, pending: 1, done: make(chan struct{})}
	gctx, cancel := context.WithCancel(context.WithValue(ctx, scopeKey{}, l))
	defer cancel()
	l.cancel = cancel
	l.order = rt.scopes.Add(1)
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
	return cmp.Or(l.err, ctx.Err())
}

// Scratch returns worker w's map, kept across scopes for the task running on
// w alone to use; key it by a value of a package's own type.
func (l *List) Scratch(w int) map[any]any { return l.rt.scratch[w] }

// Push adds one task of the given weight.
func (l *List) Push(weight int64, run func(w int) error) {
	l.Fan(1, func(int) int64 { return weight }, func(w, _ int) error { return run(w) }, nil)
}

// Fan adds n tasks, task i of weight weight(i) running run(w, i); once all
// n have returned without error, join (if not nil) runs on the worker that
// finished the last of them, or, with n = 0, as a task of its own, ranked
// behind only ItemsErr's helpers. A stopped scope takes no more tasks.
func (l *List) Fan(n int, weight func(i int) int64, run func(w, i int) error, join func(w int) error) {
	if n == 0 {
		if join != nil {
			l.Push(math.MaxInt64-1, join)
		}
		return
	}
	f := &fan{run: run, join: join}
	f.left.Store(int64(n))
	l.fan(f, n, weight)
}

// fan pushes n tasks of f, unless l is stopped and f not owned.
func (l *List) fan(f *fan, n int, weight func(i int) int64) {
	rt := l.rt
	rt.mu.Lock()
	if l.stopped && !f.owned {
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
	if !l.stopped {
		l.stopped = true
		l.release(l.rt.drop(func(t task) bool { return t.l == l && !t.f.owned }))
	}
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
			err := t.f.run(w, t.i)
			if err == nil && t.f.left.Add(-1) == 0 && t.f.join != nil {
				err = t.f.join(w)
			}
			return err
		})
		rt.mu.Lock()
		t.l.end(err)
	}
}

// drop removes the matching ready tasks and returns how many; rt.mu is held.
func (rt *taskRuntime) drop(match func(task) bool) int {
	h := rt.ready[:0]
	for _, t := range rt.ready {
		if !match(t) {
			h = append(h, t)
		}
	}
	dropped := len(rt.ready) - len(h)
	clear(rt.ready[len(h):]) // the vacated slots keep no fan alive
	rt.ready = h
	for i := len(h)/2 - 1; dropped > 0 && i >= 0; i-- { // kept in order, h is still a heap
		rt.down(i)
	}
	return dropped
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
	h, last := rt.ready, len(rt.ready)-1
	top := h[0]
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
