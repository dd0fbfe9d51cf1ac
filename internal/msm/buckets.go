package msm

import (
	"gzkp/internal/curve"
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

// groups cuts the schedule order into the kernel's bucket groups.
func (p *plan) groups(workers int) {
	target := min(max(len(p.pindex)/(4*workers), minGroupEntries), maxGroupEntries)
	p.cuts, p.entries = append(p.cuts[:0], 0), p.entries[:0]
	p.maxEntries, p.maxSegs = 0, 0
	entries := 0
	for pos, j := range p.order {
		entries += int(p.loads[j])
		if entries >= target || pos == len(p.order)-1 {
			p.cuts = append(p.cuts, pos+1)
			p.entries = append(p.entries, int64(entries))
			p.maxEntries = max(p.maxEntries, entries)
			p.maxSegs = max(p.maxSegs, (pos+1-p.cuts[len(p.cuts)-2])*p.m)
			entries = 0
		}
	}
}

// bucketWorker is one worker's scratch for one group, kept by the task
// list's runtime across MSMs and scopes: the adder and its slab, each
// kernel segment's run of live slots in it, the first chunk of a combine's
// lanes, and the Ops and accumulators of its chain (and its job's Done).
type bucketWorker struct {
	ops         *curve.Ops
	total, run  curve.Jacobian
	add         *curve.AffineAdder
	slots       int
	start, live []int32
	c0          int
}

// reduce sets sums[j·M+r] = S_{j,r} for the group's buckets.
func (bw *bucketWorker) reduce(t *Table, p *plan, group []int, sums []curve.Affine) {
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
				setPoint(&sums[j*m+r], a.Point(start[s]))
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
