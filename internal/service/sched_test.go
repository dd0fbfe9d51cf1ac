package service

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func mkJob(id, circuit string) *Job { return newJob(id, circuit, nil, nil, nil) }

// TestSchedulerBatchExtraction checks take() over interleaved circuits: the
// head plus same-circuit jobs up to maxBatch, the other jobs left queued in
// their order, and no more than dispatchers dispatches in flight.
func TestSchedulerBatchExtraction(t *testing.T) {
	s := newScheduler(3)
	s.enqueue(mkJob("a1", "A"), mkJob("b1", "B"), mkJob("a2", "A"), mkJob("c1", "C"))
	s.enqueue(mkJob("a3", "A"), mkJob("a4", "A"), mkJob("b2", "B"))
	var slots []int
	for _, want := range [][]string{{"a1", "a2", "a3"}, {"b1", "b2"}, {"c1"}, {"a4"}} {
		if len(slots) == dispatchers {
			if b, _ := s.take(); b != nil {
				t.Fatalf("dispatch %v taken with every slot busy", ids(b))
			}
			s.release(slots[0])
			slots = slots[1:]
		}
		got, slot := s.take()
		if !slices.Equal(ids(got), want) {
			t.Fatalf("dispatch %v, want %v", ids(got), want)
		}
		slots = append(slots, slot)
	}
	if d := s.depth(); d != 0 {
		t.Fatalf("depth %d after extracting every job", d)
	}
	for _, slot := range slots {
		s.release(slot)
	}
}

// TestSchedulerCloseWaitsForSlots: close returns only once every dispatch
// in flight has released its slot, and a closed scheduler refuses new jobs
// and starts no dispatch.
func TestSchedulerCloseWaitsForSlots(t *testing.T) {
	s := newScheduler(1)
	s.enqueue(mkJob("1", "A"), mkJob("2", "A"))
	_, slot := s.take()
	closed := make(chan struct{})
	go func() {
		s.close()
		close(closed)
	}()
	for s.mu.Lock(); !s.closed; s.mu.Lock() { // wait for close to begin
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	s.mu.Unlock()
	select {
	case <-closed:
		t.Fatal("close returned with a dispatch in flight")
	case <-time.After(20 * time.Millisecond):
	}
	if b, _ := s.take(); b != nil {
		t.Fatalf("closing scheduler started dispatch %v", ids(b))
	}
	s.release(slot)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("close did not return after the last slot was released")
	}
	if err := s.enqueue(mkJob("3", "A")); !errors.Is(err, errClosed) {
		t.Fatalf("enqueue after close: %v, want errClosed", err)
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

func ids(js []*Job) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}
