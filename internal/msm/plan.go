package msm

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gzkp/internal/ff"
	"gzkp/internal/par"
)

// geometry is what a plan takes from its table: the plan of one scalar
// vector serves every table that agrees in it.
type geometry struct {
	n, k, m, windows int
	signed           bool
}

func (t *Table) geometry(signed bool) geometry {
	return geometry{n: t.n, k: t.k, m: t.m, windows: t.windows, signed: signed}
}

// plan is the scalar-dependent half of a GZKP MSM (§4.1, Algorithm 1's
// bucket information): the table is built once per base set, the plan once
// per scalar vector and table geometry, so the MSMs of one witness against
// tables of one geometry — Groth16's A, B1 and B2 at M = 1 or one-shot —
// share it.
type plan struct {
	geometry
	// pindex holds every nonzero digit of window w as ±(e+1), e = (w/M)·n + i
	// the slab entry it reads, counting-sorted by segment s = j·M + (w mod M)
	// — bucket j, then remainder class — so segment s is
	// pindex[offsets[s]:offsets[s+1]].
	pindex  []int32
	offsets []int32
	loads   []int64 // entries per bucket (index 0 unused)
	order   []int   // buckets 1..B, heaviest first (index order under NoLoadBalance)
	// The kernel's bucket groups: group g is order[cuts[g]:cuts[g+1]] and
	// holds entries[g] entries; no group holds more than maxEntries entries
	// or maxSegs segments.
	cuts                []int
	entries             []int64
	maxEntries, maxSegs int
	slots               []int32 // the build's per-range segment counts
}

// segment returns the entries of bucket j's remainder class r.
func (p *plan) segment(j, r int) []int32 {
	s := j*p.m + r
	return p.pindex[p.offsets[s]:p.offsets[s+1]]
}

// planWeight ranks plan tasks above every bucket group: a group cannot
// start before its plan is complete.
const planWeight = math.MaxInt64 - 1

// buildPlan pushes onto l the tasks that build the plan of scalars (zero
// past their end, up to gm.n) into p, whose earlier build, if any, is no
// longer read, then calls then with it. The points are cut into
// cfg.workers() contiguous ranges; each range task canonicalizes, recodes
// and counts its digits per segment, one prefix sum over (segment, range)
// gives every range its first slot in each segment, and each range then
// recodes again and fills its slots in point order. Segment s thus lists
// its entries in (point, window) order whatever the range count: the
// sequential counting sort's pindex. A range's digits live in its
// worker's scratch, so a plan keeps none.
func buildPlan(l *par.List, f *ff.Field, scalars []ff.Element, gm geometry, cfg Config, p *plan, then func(p *plan)) {
	ranges := min(cfg.workers(), gm.n)
	numBuckets := bucketCount(gm.k, gm.signed)
	m, segs := gm.m, (numBuckets+1)*gm.m
	p.geometry, p.offsets = gm, grow(p.offsets, segs+1)
	// slots[r·segs+s]: range r's digit count in segment s, then its next slot.
	p.slots = grow(p.slots, ranges*segs)
	clear(p.slots)
	slots := p.slots
	weight := func(int) int64 { return planWeight }
	// scan recodes range r's scalars on worker w and walks their nonzero
	// digits in (point, window) order: it counts them per segment or, once
	// slots hold the range's first slot per segment, writes them there.
	scan := func(w, r int, fill bool) error {
		lo, hi := r*gm.n/ranges, (r+1)*gm.n/ranges
		ws, _ := l.Scratch(w)[digitsKey{}].(*digitScratch)
		if ws == nil {
			ws = new(digitScratch)
			l.Scratch(w)[digitsKey{}] = ws
		}
		d, dm := &ws.d, &ws.dm
		d.reset(f, hi-lo, gm.k)
		d.canonicalize(f, scalars[min(lo, len(scalars)):min(hi, len(scalars))], 0, hi-lo)
		dm.reset(d, gm.signed)
		dm.recode(d, 0, hi-lo)
		own := slots[r*segs : (r+1)*segs]
		for i := 0; i < hi-lo; i++ {
			if gm.signed && dm.digit(i, gm.windows) != 0 {
				return fmt.Errorf("msm: signed recoding carried out of the top window (internal error)")
			}
			for t := 0; t < gm.windows; t++ {
				v := dm.digit(i, t)
				if v == 0 {
					continue
				}
				entry := int32((t/m)*gm.n + lo + i + 1)
				if v < 0 {
					v, entry = -v, -entry
				}
				s := int(v)*m + t%m
				if fill {
					p.pindex[own[s]] = entry
				}
				own[s]++
			}
		}
		return nil
	}
	count := func(w, r int) error { return scan(w, r, false) }
	fill := func(w, r int) error { return scan(w, r, true) }
	finish := func(int) error {
		p.loads = make([]int64, numBuckets+1)
		for j := 1; j <= numBuckets; j++ {
			p.loads[j] = int64(p.offsets[(j+1)*m] - p.offsets[j*m])
		}
		// Scheduling order: group buckets by load, heaviest first (§4.2).
		p.order = grow(p.order, numBuckets)
		for j := range p.order {
			p.order[j] = j + 1
		}
		if !cfg.NoLoadBalance {
			slices.SortStableFunc(p.order, func(a, b int) int { return cmp.Compare(p.loads[b], p.loads[a]) })
		}
		p.groups(cfg.workers())
		then(p)
		return nil
	}
	prefix := func(int) error {
		next := int32(0)
		for s := 0; s < segs; s++ {
			p.offsets[s] = next
			for r := 0; r < ranges; r++ {
				c := slots[r*segs+s]
				slots[r*segs+s] = next
				next += c
			}
		}
		p.offsets[segs] = next
		p.pindex = grow(p.pindex, int(next))
		l.Fan(ranges, weight, fill, finish)
		return nil
	}
	l.Fan(ranges, weight, count, prefix)
}

// digitScratch is a worker's canonical scalars and digits for one range
// of a plan build, kept in its runtime scratch under digitsKey.
type digitScratch struct {
	d  digits
	dm digitMatrix
}

type digitsKey struct{}

// grow returns s resliced to n, made afresh only when nil or short.
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
