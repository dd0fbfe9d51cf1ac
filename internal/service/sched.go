package service

import (
	"sync"

	"gzkp/internal/telemetry"
)

// scheduler owns the per-device job queues of the serving layer. Placement
// prefers the shortest queue with a same-circuit affinity bonus (grouping
// jobs that share a proving key so device dispatch can batch them), an idle
// device steals the back half of the longest queue, and a lost device's
// queue is redistributed across survivors. All state is guarded by one
// mutex — dispatch decisions are tiny compared to proving work, so a finer
// lock would buy nothing.
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*Job
	alive  []bool
	nAlive int
	closed bool

	maxBatch int
	steals   int64              // successful steal operations
	stealCtr *telemetry.Counter // optional mirror into the metrics registry
}

func newScheduler(devices, maxBatch int) *scheduler {
	if devices < 1 {
		devices = 1
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	s := &scheduler{
		queues:   make([][]*Job, devices),
		alive:    make([]bool, devices),
		nAlive:   devices,
		maxBatch: maxBatch,
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// shortestLocked returns the alive device with the shortest queue and that
// queue's length (-1 when no device survives or the scheduler is closed).
func (s *scheduler) shortestLocked() (best, bestLen int) {
	best, bestLen = -1, int(^uint(0)>>1)
	if s.closed {
		return best, bestLen
	}
	for d, q := range s.queues {
		if s.alive[d] && len(q) < bestLen {
			best, bestLen = d, len(q)
		}
	}
	return best, bestLen
}

// enqueue places one submission's same-circuit jobs contiguously on one
// queue, so the device worker receives them as one dispatch instead of
// having the group scattered across devices. Among alive devices, a queue
// already holding the circuit wins if it is not more than one batch longer
// than the shortest queue (affinity pays only while it does not cost
// latency); otherwise the shortest queue wins. Returns false when no device
// survives.
func (s *scheduler) enqueue(jobs ...*Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestLen := s.shortestLocked()
	if best < 0 {
		return false
	}
affinity:
	for d, q := range s.queues {
		if !s.alive[d] || len(q) > bestLen+s.maxBatch {
			continue
		}
		for _, qj := range q {
			if qj.CircuitID == jobs[0].CircuitID {
				best = d
				break affinity
			}
		}
	}
	s.queues[best] = append(s.queues[best], jobs...)
	s.cond.Broadcast()
	return true
}

// requeue puts a failed-over job at the front of a survivor's queue so the
// retry does not pay the whole queue again.
func (s *scheduler) requeue(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, _ := s.shortestLocked()
	if best < 0 {
		return false
	}
	s.queues[best] = append([]*Job{j}, s.queues[best]...)
	s.cond.Broadcast()
	return true
}

// next blocks until device dev has work, stealing from the longest queue
// when its own is empty, and returns a batch: the head job plus up to
// maxBatch-1 more jobs of the same circuit (extracted in order, leaving
// other circuits queued). Returns nil when the scheduler is closed or the
// device has been declared lost — the worker exits.
func (s *scheduler) next(dev int) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || !s.alive[dev] {
			return nil
		}
		if len(s.queues[dev]) == 0 {
			s.stealLocked(dev)
		}
		if q := s.queues[dev]; len(q) > 0 {
			head := q[0]
			batch := []*Job{head}
			rest := q[1:]
			keep := rest[:0:0]
			for _, j := range rest {
				if len(batch) < s.maxBatch && j.CircuitID == head.CircuitID {
					batch = append(batch, j)
				} else {
					keep = append(keep, j)
				}
			}
			s.queues[dev] = keep
			return batch
		}
		s.cond.Wait()
	}
}

// stealLocked moves the back half of the longest queue (min 1 job, only
// from queues of length >= 2 so the victim keeps work) to dev.
func (s *scheduler) stealLocked(dev int) {
	victim, victimLen := -1, 1
	for d, q := range s.queues {
		if d != dev && len(q) > victimLen {
			victim, victimLen = d, len(q)
		}
	}
	if victim < 0 {
		return
	}
	cut := victimLen - victimLen/2
	stolen := s.queues[victim][cut:]
	s.queues[victim] = s.queues[victim][:cut:cut]
	s.queues[dev] = append(s.queues[dev], stolen...)
	s.steals++
	if s.stealCtr != nil {
		s.stealCtr.Add(1)
	}
}

// kill marks dev lost and redistributes its queue across survivors
// (round-robin). Reports whether any device remains.
func (s *scheduler) kill(dev int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.alive[dev] {
		s.alive[dev] = false
		s.nAlive--
	}
	orphans := s.queues[dev]
	s.queues[dev] = nil
	if s.nAlive > 0 && len(orphans) > 0 {
		survivors := make([]int, 0, s.nAlive)
		for d, a := range s.alive {
			if a {
				survivors = append(survivors, d)
			}
		}
		for i, j := range orphans {
			d := survivors[i%len(survivors)]
			s.queues[d] = append(s.queues[d], j)
		}
	}
	s.cond.Broadcast()
	return s.nAlive > 0
}

// depth reports the total number of queued (not yet dispatched) jobs.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// devicesAlive reports surviving devices.
func (s *scheduler) devicesAlive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nAlive
}

// stealCount reports successful steals so far.
func (s *scheduler) stealCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steals
}

// drainPending removes and returns every still-queued job — the drain
// timeout path that checkpoints work instead of dropping it.
func (s *scheduler) drainPending() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for d := range s.queues {
		out = append(out, s.queues[d]...)
		s.queues[d] = nil
	}
	return out
}

// close wakes every worker into exit.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
