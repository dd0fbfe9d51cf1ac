package service

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func mkJob(id, circuit string) *Job { return newJob(id, circuit, nil, nil, nil) }

// TestSchedulerBatchExtraction checks next() over interleaved circuits: the
// head plus same-circuit jobs up to maxBatch, the other jobs left queued in
// their order.
func TestSchedulerBatchExtraction(t *testing.T) {
	s := newScheduler(3)
	s.enqueue(mkJob("a1", "A"), mkJob("b1", "B"), mkJob("a2", "A"), mkJob("c1", "C"))
	s.enqueue(mkJob("a3", "A"), mkJob("a4", "A"), mkJob("b2", "B"))
	for _, want := range [][]string{{"a1", "a2", "a3"}, {"b1", "b2"}, {"c1"}, {"a4"}} {
		if got := ids(s.next()); !slices.Equal(got, want) {
			t.Fatalf("dispatch %v, want %v", got, want)
		}
	}
	if d := s.depth(); d != 0 {
		t.Fatalf("depth %d after extracting every job", d)
	}
}

// TestSchedulerLostReturnsQueued checks that losing the prover hands back
// every queued job in order, refuses new jobs and releases the dispatchers.
func TestSchedulerLostReturnsQueued(t *testing.T) {
	s := newScheduler(4)
	s.enqueue(mkJob("1", "A"), mkJob("2", "B"))
	s.enqueue(mkJob("3", "A"))
	if got := ids(s.lose()); !slices.Equal(got, []string{"1", "2", "3"}) {
		t.Fatalf("lose returned %v, want [1 2 3]", got)
	}
	if !s.isLost() || s.depth() != 0 {
		t.Fatalf("lost=%v depth=%d after lose", s.isLost(), s.depth())
	}
	if err := s.enqueue(mkJob("4", "A")); !errors.Is(err, ErrProverLost) {
		t.Fatalf("enqueue after the prover was lost: %v, want ErrProverLost", err)
	}
	if b := s.next(); b != nil {
		t.Fatalf("next handed out %v after the prover was lost", ids(b))
	}
}

// TestSchedulerDrainPending empties the queue and returns the jobs.
func TestSchedulerDrainPending(t *testing.T) {
	s := newScheduler(1)
	s.enqueue(mkJob("1", "A"))
	s.enqueue(mkJob("2", "B"))
	got := s.drainPending()
	if len(got) != 2 {
		t.Fatalf("drainPending returned %d jobs, want 2", len(got))
	}
	if s.depth() != 0 {
		t.Fatalf("depth %d after drainPending", s.depth())
	}
}

// TestSchedulerCloseWakesDispatchers checks close releases every
// dispatcher blocked on an empty queue.
func TestSchedulerCloseWakesDispatchers(t *testing.T) {
	s := newScheduler(1)
	done := make(chan []*Job, dispatchers)
	for range dispatchers {
		go func() { done <- s.next() }()
	}
	time.Sleep(10 * time.Millisecond) // let them block
	s.close()
	for range dispatchers {
		select {
		case b := <-done:
			if b != nil {
				t.Fatalf("closed scheduler handed out %v", ids(b))
			}
		case <-time.After(2 * time.Second):
			t.Fatal("close did not wake a blocked dispatcher")
		}
	}
	if err := s.enqueue(mkJob("x", "A")); !errors.Is(err, errClosed) {
		t.Fatalf("enqueue after close: %v, want errClosed", err)
	}
}

func ids(js []*Job) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}
