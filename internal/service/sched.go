package service

import (
	"errors"
	"sync"
)

// dispatchers is how many dispatches may be in flight at once. Every
// dispatch is one scope on the process's task list, so a second one buys
// overlap rather than parallel width: its tasks fill the cores the older
// dispatch leaves idle (its solve, verify and a k-wide prove's narrow
// stretches). With one dispatch in flight, serve_batch (k = 4) on a 2-core
// Xeon VM fell from 113–119 to 86–93 proofs/s and its proof p50 rose from
// 68–75 to 84–94 ms (three alternating pairs, 8 s windows); serve_warm
// and serve_default stayed flat.
const dispatchers = 2

// scheduler is the service's one job queue: a FIFO under one mutex from
// which same-circuit dispatches are taken, up to dispatchers in flight.
// Dispatch decisions are tiny compared to proving work, so a finer lock
// would buy nothing.
type scheduler struct {
	mu       sync.Mutex
	queue    []*Job
	maxBatch int
	busy     [dispatchers]bool // dispatch slots in flight
	inFlight sync.WaitGroup    // one count per busy slot
	closed   bool
}

func newScheduler(maxBatch int) *scheduler {
	return &scheduler{maxBatch: max(maxBatch, 1)}
}

// errClosed fails jobs admitted after Close.
var errClosed = errors.New("service: closed")

// enqueue appends one submission's jobs to the queue, contiguously, so a
// same-circuit group reaches one dispatch together. It refuses them with
// errClosed once closed.
func (s *scheduler) enqueue(jobs ...*Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.queue = append(s.queue, jobs...)
	return nil
}

// take returns the next dispatch and the slot it runs in: the head job plus
// up to maxBatch-1 more jobs of the same circuit, extracted in order,
// leaving the other jobs queued in theirs. It returns nil when the queue is
// empty, every slot is busy, or the scheduler is closed. The slot stays
// busy until release.
func (s *scheduler) take() ([]*Job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := 0
	for slot < dispatchers && s.busy[slot] {
		slot++
	}
	if len(s.queue) == 0 || slot == dispatchers || s.closed {
		return nil, 0
	}
	s.busy[slot] = true
	s.inFlight.Add(1)
	head := s.queue[0]
	batch := []*Job{head}
	keep := s.queue[:0:0]
	for _, j := range s.queue[1:] {
		if len(batch) < s.maxBatch && j.CircuitID == head.CircuitID {
			batch = append(batch, j)
		} else {
			keep = append(keep, j)
		}
	}
	s.queue = keep
	return batch, slot
}

// release frees a slot taken by take.
func (s *scheduler) release(slot int) {
	s.mu.Lock()
	s.busy[slot] = false
	s.mu.Unlock()
	s.inFlight.Done()
}

// depth reports the number of queued (not yet dispatched) jobs.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// drainPending removes and returns every still-queued job — the drain
// timeout path that checkpoints work instead of dropping it.
func (s *scheduler) drainPending() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.queue
	s.queue = nil
	return out
}

// close stops taking dispatches and waits for the slots in flight.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.inFlight.Wait()
}
