package msm

import (
	"context"

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
// sum S_{j,r} lands in buckets[j·M+r]; reduceBuckets weights the classes, so
// Algorithm 1's checkpoint fix-up costs (M-1)·k doublings per MSM rather
// than per bucket.
func affineBuckets(ctx context.Context, t *Table, p *bucketPlan, buckets []curve.Jacobian, cfg Config) error {
	workers := cfg.workers()
	cuts, slots, segs := p.groups(workers)
	mk := func() *bucketWorker {
		return &bucketWorker{
			ops: t.g.NewOps(), add: t.g.NewAffineAdder(slots),
			start: make([]int32, segs), live: make([]int32, segs),
		}
	}
	run := func(bw *bucketWorker, gi int) error {
		bw.reduce(t, p, p.order[cuts[gi]:cuts[gi+1]], buckets)
		return nil
	}
	schedule := par.ItemsErr[*bucketWorker] // dynamic, in the heaviest-first order
	if cfg.NoLoadBalance {
		schedule = par.StaticItemsErr[*bucketWorker]
	}
	return schedule(ctx, len(cuts)-1, workers, mk, run)
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

// bucketWorker is one worker's scratch, allocated once per worker per MSM:
// the adder and its slab, and each segment's run of live slots in it.
type bucketWorker struct {
	ops         *curve.Ops
	add         *curve.AffineAdder
	start, live []int32
}

// reduce sets buckets[j·M+r] = S_{j,r} for the group's buckets.
func (bw *bucketWorker) reduce(t *Table, p *bucketPlan, group []int, buckets []curve.Jacobian) {
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
				w := e / p.n
				if pt := t.pre[w/m][e-w*p.n]; !pt.Inf {
					a.Load(slot, pt, neg)
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
				bw.ops.FromAffine(&buckets[j*m+r], a.Point(start[s]))
			}
		}
	}
}
