package service

import (
	"errors"
	"sync"
)

// dispatchers is how many dispatch goroutines pull from the queue. Each
// prove already fans its kernels out over every core, so a second
// dispatcher buys overlap rather than parallel width: one dispatch's
// solve and verify (and a k-wide prove's narrow stretches) run while the
// other proves. With one dispatcher, serve_batch (k = 4) on a 2-core
// Xeon VM fell from 113–119 to 86–93 proofs/s and its proof p50 rose from
// 68–75 to 84–94 ms (three alternating pairs, 8 s windows); serve_warm
// and serve_default stayed flat.
const dispatchers = 2

// scheduler is the service's one job queue: a FIFO under one mutex that
// the dispatchers pull same-circuit dispatches from. Dispatch decisions are
// tiny compared to proving work, so a finer lock would buy nothing.
type scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	maxBatch int
	closed   bool
	// lost is set once this node's prover is gone: the queue hands its jobs
	// back and refuses new ones.
	lost bool
}

func newScheduler(maxBatch int) *scheduler {
	s := &scheduler{maxBatch: max(maxBatch, 1)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// errClosed fails jobs admitted while Close stopped the dispatchers.
var errClosed = errors.New("service: closed")

// enqueue appends one submission's jobs to the queue, contiguously, so a
// same-circuit group reaches one dispatcher together. It refuses them with
// ErrProverLost once the prover is lost, errClosed once closed.
func (s *scheduler) enqueue(jobs ...*Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.lost:
		return ErrProverLost
	case s.closed:
		return errClosed
	}
	s.queue = append(s.queue, jobs...)
	s.cond.Broadcast()
	return nil
}

// next blocks until there is work and returns a dispatch: the head job plus
// up to maxBatch-1 more jobs of the same circuit, extracted in order,
// leaving the other jobs queued in theirs. Returns nil once the scheduler
// is closed or the prover lost — the dispatcher exits.
func (s *scheduler) next() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed && !s.lost {
		s.cond.Wait()
	}
	if s.closed || s.lost {
		return nil
	}
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
	return batch
}

// lose marks the prover lost, wakes the dispatchers into exit and returns
// every still-queued job for the caller to fail.
func (s *scheduler) lose() []*Job {
	s.mu.Lock()
	s.lost = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return s.drainPending()
}

// isLost reports whether the prover has been lost.
func (s *scheduler) isLost() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost
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

// close wakes every dispatcher into exit.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
