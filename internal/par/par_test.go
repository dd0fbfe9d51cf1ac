package par

import (
	"context"
	"errors"
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

// Static scheduling hands each worker one contiguous chunk: every item is
// visited once, and the items sharing a worker's state form one interval of
// at most ceil(n/workers) items.
func TestStaticItemsChunksContiguously(t *testing.T) {
	type span struct{ lo, hi, count int }
	for _, workers := range []int{1, 7} {
		n := 333
		seen := make([]int32, n)
		var mu sync.Mutex
		var spans []*span
		err := StaticItemsErr(context.Background(), n, workers, func() *span {
			s := &span{lo: n, hi: -1}
			mu.Lock()
			spans = append(spans, s)
			mu.Unlock()
			return s
		}, func(s *span, item int) error {
			atomic.AddInt32(&seen[item], 1)
			s.lo, s.hi, s.count = min(s.lo, item), max(s.hi, item), s.count+1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, c)
			}
		}
		chunk := (n + workers - 1) / workers
		for _, s := range spans {
			if s.count > 0 && (s.hi-s.lo+1 != s.count || s.count > chunk) {
				t.Fatalf("workers=%d: non-contiguous or oversized chunk %+v (chunk %d)", workers, *s, chunk)
			}
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
	if err := StaticItemsErr(ctx, 0, 4, nil, fn); err != nil {
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
	if err := StaticItemsErr(ctx, 10, 4, nil, fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("StaticItemsErr: %v", err)
	}
	if err := RangeErr(ctx, 10, 4, func(_, _ int) error { called = true; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("RangeErr: %v", err)
	}
	if called {
		t.Fatal("work ran under a pre-canceled context")
	}
}
