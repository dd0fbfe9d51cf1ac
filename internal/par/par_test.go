package par

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gzkp/internal/resilience"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("explicit worker count ignored")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("default workers must be positive")
	}
}

func TestRangeCoversAll(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, w := range []int{1, 3, 8, 200} {
			seen := make([]int32, n)
			err := RangeErr(ctx, n, w, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestItemsCoversAllWithState(t *testing.T) {
	n := 500
	var visited int64
	var mu sync.Mutex
	var states []*int
	err := ItemsErr(context.Background(), n, 4, func() *int {
		s := new(int)
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	}, func(state *int, item int) error {
		*state++
		atomic.AddInt64(&visited, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != int64(n) {
		t.Fatalf("visited %d of %d", visited, n)
	}
	// Per-worker state increments must sum to n.
	var total int
	for _, s := range states {
		total += *s
	}
	if total != n || len(states) > 4 {
		t.Fatalf("state increments %d != %d over %d states", total, n, len(states))
	}
}

// Dynamic dispatch hands items out in index order — what msm's bucket
// kernel relies on to start its heaviest-first groups first.
func TestItemsDispatchInIndexOrder(t *testing.T) {
	ctx := context.Background()
	n := 64
	var got []int
	if err := ItemsErr(ctx, n, 1, nil, func(_ struct{}, item int) error {
		got = append(got, item)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("single-worker dispatch broke index order at %d: %d", i, v)
		}
	}
	// Multi-worker: all items exactly once.
	seen := make([]int32, n)
	if err := ItemsErr(ctx, n, 5, nil, func(_ struct{}, item int) error {
		atomic.AddInt32(&seen[item], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d visited %d times", i, c)
		}
	}
}

func TestZeroItems(t *testing.T) {
	// None of these may panic, call fn, or report an error.
	ctx := context.Background()
	called := false
	fn := func(_ struct{}, _ int) error { called = true; return nil }
	if err := ItemsErr(ctx, 0, 4, nil, fn); err != nil {
		t.Fatal(err)
	}
	if err := RangeErr(ctx, 0, 4, func(lo, hi int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("work executed for n=0")
	}
}

func TestItemsErrPanicRecovered(t *testing.T) {
	err := ItemsErr(context.Background(), 100, 4,
		nil,
		func(_ struct{}, item int) error {
			if item == 37 {
				panic("injected worker panic")
			}
			return nil
		})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not recovered into error: %v", err)
	}
	if pe.Value != "injected worker panic" || len(pe.Stack) == 0 {
		t.Fatalf("panic value/stack lost: %+v", pe)
	}
	// Single-worker inline path recovers too.
	err = ItemsErr(context.Background(), 3, 1,
		nil,
		func(_ struct{}, _ int) error { panic("inline") })
	if !errors.As(err, &pe) || pe.Value != "inline" {
		t.Fatalf("inline panic not recovered: %v", err)
	}
}

func TestFirstErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var executed int64
	err := ItemsErr(context.Background(), 10000, 4,
		nil,
		func(_ struct{}, item int) error {
			atomic.AddInt64(&executed, 1)
			if item == 5 {
				return boom
			}
			time.Sleep(50 * time.Microsecond)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("first error lost: %v", err)
	}
	if n := atomic.LoadInt64(&executed); n == 10000 {
		t.Fatal("error did not cancel remaining items")
	}
}

func TestCancellationStopsWorkAndJoins(t *testing.T) {
	// The 4-worker runtime's workers live for the process: start them
	// before counting.
	if err := Run(context.Background(), 4, func(context.Context, *List) error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var executed int64
	done := make(chan error, 1)
	go func() {
		done <- ItemsErr(ctx, 100000, 4, nil,
			func(_ struct{}, _ int) error {
				atomic.AddInt64(&executed, 1)
				time.Sleep(200 * time.Microsecond)
				return nil
			})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pool returned %v", err)
	}
	// Workers must all have joined: goroutine count settles back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, g)
	}
}

func TestErrVariantsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	fn := func(_ struct{}, _ int) error { called = true; return nil }
	if err := ItemsErr(ctx, 10, 4, nil, fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("ItemsErr: %v", err)
	}
	if err := RangeErr(ctx, 10, 4, func(_, _ int) error { called = true; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("RangeErr: %v", err)
	}
	if called {
		t.Fatal("work ran under a pre-canceled context")
	}
}

// TestListRunsHeaviestFirstAndJoins: one worker takes ready tasks by
// weight, ties in push order; a fan's join runs once, after its last task,
// and the tasks it pushes run in the same list.
func TestListRunsHeaviestFirstAndJoins(t *testing.T) {
	var order []int
	err := Run(context.Background(), 1, func(_ context.Context, l *List) error {
		weights := []int64{1, 5, 3, 5}
		l.Fan(len(weights), func(i int) int64 { return weights[i] },
			func(_, i int) error { order = append(order, i); return nil },
			func(int) error {
				order = append(order, -1)
				l.Push(0, func(int) error { order = append(order, -2); return nil })
				return nil
			})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 2, 0, -1, -2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

// TestListWorkersShareTasks: every task runs once, on a worker index in
// range, and a chain of joins fanning out further tasks runs to the end
// on several workers.
func TestListWorkersShareTasks(t *testing.T) {
	const workers, width, depth = 3, 50, 4
	var ran [depth][width]atomic.Int32
	var stage func(l *List, d int)
	stage = func(l *List, d int) {
		l.Fan(width, func(i int) int64 { return int64(i) }, func(w, i int) error {
			if w < 0 || w >= workers {
				return errors.New("worker index out of range")
			}
			ran[d][i].Add(1)
			return nil
		}, func(int) error {
			if d+1 < depth {
				stage(l, d+1)
			}
			return nil
		})
	}
	err := Run(context.Background(), workers, func(_ context.Context, l *List) error {
		stage(l, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := range ran {
		for i := range ran[d] {
			if n := ran[d][i].Load(); n != 1 {
				t.Fatalf("stage %d task %d ran %d times", d, i, n)
			}
		}
	}
}

// TestListErrorsPanicsAndCancellation: a task's error or panic stops the
// list and returns (the panic as *resilience.PanicError), as does a panic
// in the seed; an external
// cancellation returns ctx.Err() and leaves no goroutine behind.
func TestListErrorsPanicsAndCancellation(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		name string
		fail func() error
	}{{"error", func() error { return boom }}, {"panic", func() error { panic("injected") }}} {
		var after atomic.Int32
		err := Run(context.Background(), 2, func(_ context.Context, l *List) error {
			l.Push(1, func(int) error { return c.fail() })
			for range 100 {
				l.Push(0, func(int) error { after.Add(1); time.Sleep(100 * time.Microsecond); return nil })
			}
			return nil
		})
		var pe *resilience.PanicError
		if c.name == "error" && !errors.Is(err, boom) || c.name == "panic" && !errors.As(err, &pe) {
			t.Fatalf("%s: returned %v", c.name, err)
		}
		if after.Load() == 100 {
			t.Fatalf("%s did not stop the list", c.name)
		}
	}
	// A panic in the seed, on Run's own goroutine, returns the same way.
	var pe *resilience.PanicError
	err := Run(context.Background(), 2, func(context.Context, *List) error { panic("seed") })
	if !errors.As(err, &pe) || pe.Value != "seed" {
		t.Fatalf("seed panic: returned %v", err)
	}

	// The 4-worker runtime's workers live for the process: start them
	// before counting.
	if err := Run(context.Background(), 4, func(context.Context, *List) error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(2*time.Millisecond, cancel)
	err = Run(ctx, 4, func(ctx context.Context, l *List) error {
		var spawn func(int) error
		spawn = func(int) error { // an endless chain, each task pushing the next
			time.Sleep(100 * time.Microsecond)
			l.Push(0, spawn)
			return nil
		}
		l.Push(0, spawn)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled list returned %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+1 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, g)
	}
}

// TestScopesIsolated: four concurrent scopes on one runtime, one of whose
// tasks panics. That Run returns the panic as *resilience.PanicError, the
// other three run every task, and repeating the round grows no goroutines.
func TestScopesIsolated(t *testing.T) {
	const scopes, tasks = 4, 40
	round := func() {
		var ran [scopes]atomic.Int32
		errs := make([]error, scopes)
		var wg sync.WaitGroup
		for s := range scopes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[s] = Run(context.Background(), 2, func(_ context.Context, l *List) error {
					l.Fan(tasks, func(i int) int64 { return int64(i) }, func(_, i int) error {
						if s == 1 && i == tasks/2 {
							panic("injected")
						}
						time.Sleep(20 * time.Microsecond)
						ran[s].Add(1)
						return nil
					}, nil)
					return nil
				})
			}()
		}
		wg.Wait()
		for s := range scopes {
			var pe *resilience.PanicError
			switch {
			case s == 1 && !errors.As(errs[s], &pe):
				t.Fatalf("panicking scope returned %v", errs[s])
			case s != 1 && (errs[s] != nil || ran[s].Load() != tasks):
				t.Fatalf("scope %d: %v after %d of %d tasks", s, errs[s], ran[s].Load(), tasks)
			}
		}
	}
	round()
	before := runtime.NumGoroutine()
	for range 5 {
		round()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines grew across rounds: %d before, %d after", before, g)
	}
}

// TestScopesRunOldestFirst: on one worker, a task of an older scope runs
// before a heavier task of a newer one, and within a scope the heavier
// task runs first.
func TestScopesRunOldestFirst(t *testing.T) {
	var mu sync.Mutex
	var order []string
	note := func(s string) func(int) error {
		return func(int) error {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
			return nil
		}
	}
	newer := make(chan struct{})
	pushed := make(chan struct{})
	go func() {
		<-newer
		Run(context.Background(), 1, func(_ context.Context, l *List) error {
			l.Push(100, note("new"))
			close(pushed)
			return nil
		})
	}()
	err := Run(context.Background(), 1, func(_ context.Context, l *List) error {
		l.Push(0, func(int) error { // holds the worker until the newer scope has pushed
			close(newer)
			<-pushed
			l.Push(1, note("old-light"))
			l.Push(2, note("old-heavy"))
			return nil
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for wait := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 3 || time.Now().After(wait) {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"old-heavy", "old-light", "new"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

// TestNestedRunErrors: a Run under a scope's context, from inside a task on
// a one-worker runtime, returns ErrNested instead of waiting for the
// worker its caller holds.
func TestNestedRunErrors(t *testing.T) {
	var nested error
	err := Run(context.Background(), 1, func(ctx context.Context, l *List) error {
		l.Push(0, func(int) error {
			nested = Run(ctx, 1, func(_ context.Context, l *List) error {
				l.Push(0, func(int) error { return nil })
				return nil
			})
			return nil
		})
		return nil
	})
	if err != nil || !errors.Is(nested, ErrNested) {
		t.Fatalf("outer %v, nested %v; want nil and ErrNested", err, nested)
	}
}

// TestItemsInScopeStartNoGoroutine: an ItemsErr inside a task of a 2-worker
// scope runs on the runtime's workers and starts no goroutine of its own.
func TestItemsInScopeStartNoGoroutine(t *testing.T) {
	if err := Run(context.Background(), 2, func(context.Context, *List) error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var most atomic.Int64
	err := Run(context.Background(), 2, func(ctx context.Context, l *List) error {
		l.Push(0, func(int) error {
			return ItemsErr(ctx, 64, 4, nil, func(struct{}, int) error {
				if g := int64(runtime.NumGoroutine()); g > most.Load() {
					most.Store(g)
				}
				time.Sleep(20 * time.Microsecond)
				return nil
			})
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := most.Load(); g > int64(before) {
		t.Fatalf("%d goroutines while the items ran, %d before", g, before)
	}
}

// TestItemsNestedThreeDeep: ItemsErr nested three deep completes on a
// 1-worker runtime (and on a 2-worker one) and runs every item once.
func TestItemsNestedThreeDeep(t *testing.T) {
	const n = 5
	for _, workers := range []int{1, 2} {
		var ran [n][n][n]atomic.Int32
		err := Run(context.Background(), workers, func(ctx context.Context, l *List) error {
			l.Push(0, func(int) error {
				return ItemsErr(ctx, n, 4, nil, func(_ struct{}, i int) error {
					return ItemsErr(ctx, n, 4, nil, func(_ struct{}, j int) error {
						return ItemsErr(ctx, n, 4, nil, func(_ struct{}, k int) error {
							ran[i][j][k].Add(1)
							return nil
						})
					})
				})
			})
			return nil
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range ran {
			for j := range ran[i] {
				for k := range ran[i][j] {
					if c := ran[i][j][k].Load(); c != 1 {
						t.Fatalf("workers %d: item %d/%d/%d ran %d times", workers, i, j, k, c)
					}
				}
			}
		}
	}
}

// TestItemsOutsideScopeDoNotWaitForBusyWorkers: an ItemsErr outside any
// scope, started while an older scope holds every worker, returns once its
// caller has run all items.
func TestItemsOutsideScopeDoNotWaitForBusyWorkers(t *testing.T) {
	hold, held := make(chan struct{}), make(chan struct{}, 2)
	older := make(chan error, 1)
	go func() {
		older <- Run(context.Background(), 2, func(_ context.Context, l *List) error {
			for range 2 {
				l.Push(0, func(int) error { held <- struct{}{}; <-hold; return nil })
			}
			return nil
		})
	}()
	<-held
	<-held
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ItemsErr(context.Background(), 16, 2, nil, func(struct{}, int) error { ran.Add(1); return nil })
	}()
	select {
	case err := <-done:
		if err != nil || ran.Load() != 16 {
			t.Fatalf("returned %v after %d of 16 items", err, ran.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ItemsErr waited for the busy workers")
	}
	close(hold)
	if err := <-older; err != nil {
		t.Fatal(err)
	}
}

// TestItemsInScopeAllocs: a fan under a scope makes fewer allocations than
// the 8 a goroutine pool of two made.
func TestItemsInScopeAllocs(t *testing.T) {
	var allocs float64
	err := Run(context.Background(), 2, func(ctx context.Context, _ *List) error {
		allocs = testing.AllocsPerRun(200, func() {
			if err := ItemsErr(ctx, 16, 2, nil, func(struct{}, int) error { return nil }); err != nil {
				t.Error(err)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs >= 8 {
		t.Fatalf("%.1f allocations per ItemsErr, want < 8", allocs)
	}
	t.Logf("%.1f allocations per ItemsErr", allocs)
}

// TestItemsInFailedScopeReturn: a scope that fails while a fan's helper is
// still queued keeps that helper for its caller, whose ItemsErr returns
// the scope's cancellation instead of waiting for a dropped helper.
func TestItemsInFailedScopeReturn(t *testing.T) {
	boom := errors.New("boom")
	for range 20 {
		started := make(chan struct{})
		var items error
		done := make(chan error, 1)
		go func() {
			done <- Run(context.Background(), 2, func(ctx context.Context, l *List) error {
				// The failing task holds one worker, the fan's caller the
				// other, so the helper is still queued when the scope fails.
				l.Push(1, func(int) error { <-started; return boom })
				l.Push(0, func(int) error {
					var once sync.Once
					items = ItemsErr(ctx, 100, 2, nil, func(struct{}, int) error {
						once.Do(func() { close(started) })
						time.Sleep(100 * time.Microsecond)
						return nil
					})
					return nil
				})
				return nil
			})
		}()
		select {
		case err := <-done:
			if !errors.Is(err, boom) || !errors.Is(items, context.Canceled) {
				t.Fatalf("scope returned %v, its ItemsErr %v", err, items)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ItemsErr in a failed scope did not return")
		}
	}
}
