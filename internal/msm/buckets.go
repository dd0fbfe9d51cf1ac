package msm

import (
	"context"
	"sync"

	"gzkp/internal/curve"
	"gzkp/internal/par"
)

// A task takes consecutive buckets of the schedule order until it holds
// about total/(4·workers) entries, within these bounds: each round of a
// group's tree costs one inversion (≈ 380 Fq muls on BN254) and the last
// rounds hold about one pair per bucket, so a group needs entries enough to
// amortise it; four tasks per worker keep the dispatch balanced, and the
// cap bounds the per-worker slab.
const (
	minGroupEntries = 1 << 10
	maxGroupEntries = 1 << 12
)

// affineBuckets is the GZKP bucket kernel. Each task takes a group of
// buckets from the schedule order and reduces all of the group's segments
// (bucket, remainder class) as one tree in a per-worker limb slab
// (curve.AffineAdder): entries' table points are loaded — as (x, −y) for a
// negative digit, points at infinity dropped — and each round pairs every
// segment's survivors in place under one shared inversion. Each segment's
// sum S_{j,r} lands, still affine, in sums[j·M+r]; reduceBuckets weights
// the classes, so Algorithm 1's checkpoint fix-up costs (M-1)·k doublings
// per MSM rather than per bucket.
func affineBuckets(ctx context.Context, t *Table, p *bucketPlan, sums []curve.Affine, ws *workerSet, cfg Config) error {
	run := func(bw *bucketWorker, gi int) error {
		bw.reduce(t, p, p.order[p.cuts[gi]:p.cuts[gi+1]], sums)
		return nil
	}
	schedule := par.ItemsErr[*bucketWorker] // dynamic, in the heaviest-first order
	if cfg.NoLoadBalance {
		schedule = par.StaticItemsErr[*bucketWorker]
	}
	return schedule(ctx, len(p.cuts)-1, cfg.workers(), ws.take, run)
}

// groups cuts the schedule order into bucket groups, returning the cut
// points (group g is order[cuts[g]:cuts[g+1]]) and the most entries and
// segments any group holds.
func (p *bucketPlan) groups(workers int) (cuts []int, maxEntries, maxSegs int) {
	target := min(max(len(p.pindex)/(4*workers), minGroupEntries), maxGroupEntries)
	cuts = append(cuts, 0)
	entries := 0
	for pos, j := range p.order {
		entries += int(p.loads[j])
		if entries >= target || pos == len(p.order)-1 {
			cuts = append(cuts, pos+1)
			maxEntries = max(maxEntries, entries)
			maxSegs = max(maxSegs, (pos+1-cuts[len(cuts)-2])*p.m)
			entries = 0
		}
	}
	return cuts, maxEntries, maxSegs
}

// bucketWorker is one worker's scratch, allocated once per worker per MSM
// and used by the kernel and then the combine: the adder and its slab,
// each kernel segment's run of live slots in it, and the first chunk of
// the combine's lanes.
type bucketWorker struct {
	add         *curve.AffineAdder
	start, live []int32
	c0          int
}

// workerSet hands each goroutine of an MSM's parallel phases a
// bucketWorker, reusing the earlier phase's: the combine runs on the
// kernel's adders.
type workerSet struct {
	mu    sync.Mutex
	all   []*bucketWorker
	taken int
	mk    func() *bucketWorker
}

// take returns a worker no goroutine of the current phase holds.
func (ws *workerSet) take() *bucketWorker {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.taken == len(ws.all) {
		ws.all = append(ws.all, ws.mk())
	}
	ws.taken++
	return ws.all[ws.taken-1]
}

// release hands every worker back once a phase has returned.
func (ws *workerSet) release() { ws.taken = 0 }

// reduce sets sums[j·M+r] = S_{j,r} for the group's buckets.
func (bw *bucketWorker) reduce(t *Table, p *bucketPlan, group []int, sums []curve.Affine) {
	m, a := p.m, bw.add
	start, live := bw.start[:len(group)*m], bw.live[:len(group)*m]
	// Load every segment's entries into consecutive slots.
	slot := int32(0)
	for gi, j := range group {
		for r := 0; r < m; r++ {
			s := gi*m + r
			start[s] = slot
			for _, raw := range p.segment(j, r) {
				e, neg := int(raw)-1, raw < 0
				if neg {
					e = int(-raw) - 1
				}
				if xy, inf := t.point(e); !inf {
					a.LoadLimbs(slot, xy, neg)
					slot++
				}
			}
			live[s] = slot - start[s]
		}
	}
	// Rounds: pair each segment's survivors in place — outputs fill the
	// segment's slots from its start — until one point (or none) is left.
	for more := true; more; {
		more = false
		for s := range live {
			if live[s] < 2 {
				continue
			}
			more = true
			out, held := start[s], int32(-1)
			for i := start[s]; i < start[s]+live[s]; i++ {
				switch {
				case a.Point(i).Inf:
				case held < 0:
					held = i
				default:
					a.Queue(held, i, out)
					out++
					held = -1
				}
			}
			if held >= 0 {
				a.Queue(held, -1, out)
				out++
			}
			live[s] = out - start[s]
		}
		if more {
			a.Flush()
		}
	}
	for gi, j := range group {
		for r := 0; r < m; r++ {
			if s := gi*m + r; live[s] > 0 {
				pt, sum := a.Point(start[s]), &sums[j*m+r]
				copy(sum.X, pt.X)
				copy(sum.Y, pt.Y)
				sum.Inf = pt.Inf
			}
		}
	}
}

// runningSums advances the lanes of chunks [c0, c1) — chunk c is buckets
// [1+c·size, 1+(c+1)·size) ∩ [1, B] of every class — from their top bucket
// down, one flush per step. Step t queues, per lane, L += R (the running sum
// after t buckets) and then R += S_j, so each flush reads R before it
// writes it. Lane (c, r) ends with L = Σ (j−a+1)·S_{j,r} and
// R = Σ S_{j,r} over its chunk, in slots 3·((c−c0)·M+r) and one above; the
// slot after them stages S_j.
func (bw *bucketWorker) runningSums(sums []curve.Affine, m, numBuckets, size, c0, c1 int) {
	a := bw.add
	bw.c0 = c0
	for s := int32(0); s < int32(3*(c1-c0)*m); s++ {
		a.SetInfinity(s)
	}
	for step := 0; step <= size; step++ {
		for c := c0; c < c1; c++ {
			lo, hi := 1+c*size, min(1+(c+1)*size, numBuckets+1)
			j := hi - 1 - step // this step's bucket, none once j < lo
			for r := 0; r < m; r++ {
				lw := bw.lane(c, r, m) // L; R and the staged S_j follow
				rs, st := lw+1, lw+2
				rInf := a.Point(rs).Inf
				if step > 0 && j >= lo-1 && !rInf {
					if a.Point(lw).Inf {
						a.Queue(rs, -1, lw)
					} else {
						a.Queue(lw, rs, lw)
					}
				}
				if j < lo {
					continue
				}
				if pt := sums[j*m+r]; !pt.Inf {
					if rInf {
						a.Load(rs, pt, false)
					} else {
						a.Load(st, pt, false)
						a.Queue(rs, st, rs)
					}
				}
			}
		}
		a.Flush()
	}
}

// lane returns the L slot of lane (c, r); its R slot is the next one.
func (bw *bucketWorker) lane(c, r, m int) int32 { return int32(3 * ((c-bw.c0)*m + r)) }
