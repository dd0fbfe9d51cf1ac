package msm

import (
	"context"
	"fmt"
	"slices"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
	"gzkp/internal/telemetry"
)

// Tasks queues MSMs on one par.List, the apply half of the GZKP MSM: for
// every scalar vector, one plan per table geometry, then every MSM's
// bucket groups and its combine as tasks of their own, so the MSMs of a
// list, and whatever else it runs, share the workers. The workers keep
// their bucket scratch (List.Scratch) across MSMs and scopes.
type Tasks struct {
	l   *par.List
	cfg Config
}

// NewTasks returns the MSM queue of list l under cfg.
func NewTasks(l *par.List, cfg Config) *Tasks {
	return &Tasks{l: l, cfg: cfg}
}

// Job is one MSM for Tasks.Add, its result written to *Out. Its bases are
// Table's or, with no Table, Points on G: through a one-shot table under
// the GZKP strategy, as one task running ComputeCtx under any other (or
// with no points). Done, if set, runs once *Out is final.
type Job struct {
	Table  *Table
	G      *curve.Group
	Points []curve.Affine
	Out    *Result
	Done   func()
}

// Result is one MSM's outcome.
type Result struct {
	Point curve.Affine
	Stats Stats
}

// job is a GZKP Job in flight, with its table and span.
type job struct {
	Job
	ctx context.Context
	sp  telemetry.Span
}

// combineWeight ranks a combine's lanes above every bucket group and below
// the plans: they finish an MSM, and nothing waits on a group alone.
const combineWeight = planWeight - 1

// Add queues jobs over one scalar vector, which may be shorter than a
// job's bases (the missing scalars are zero). Jobs whose tables agree in
// geometry share one plan. ctx carries each MSM's span; cancellation acts
// at task boundaries, through the list's context.
func (ts *Tasks) Add(ctx context.Context, scalars []ff.Element, jobs ...Job) error {
	var shared [][]*job // jobs by geometry, each sharing one plan
	for _, j := range jobs {
		t := j.Table
		if t == nil {
			if len(scalars) > len(j.Points) {
				return fmt.Errorf("msm: %d scalars vs %d points", len(scalars), len(j.Points))
			}
			if ts.cfg.Strategy != GZKP || len(j.Points) == 0 {
				ts.l.Push(int64(len(scalars)), func(int) error {
					p, st, err := ComputeCtx(ctx, j.G, j.Points[:len(scalars)], scalars, ts.cfg)
					if err != nil {
						return err
					}
					*j.Out = Result{p, st}
					j.done()
					return nil
				})
				continue
			}
			// A single checkpoint: levels would cost more doublings than
			// one MSM's Horner chain saves, and their build opens a scope.
			oneShot := ts.cfg
			oneShot.CheckpointInterval = 0
			var err error
			if t, err = newTable(ctx, j.G, j.Points, oneShot, false); err != nil {
				return err
			}
			j.Table = t
		}
		if len(scalars) > t.n {
			return fmt.Errorf("msm: %d scalars vs table of %d points", len(scalars), t.n)
		}
		if l := t.g.Fr.Bits(); ts.cfg.SignedBuckets && l%t.k == 0 {
			return fmt.Errorf("msm: signed buckets need k ∤ %d (scalar bits); table has k=%d — rebuild with SignedBuckets set", l, t.k)
		}
		jb := &job{Job: j}
		jb.sp, jb.ctx = telemetry.StartSpan(ctx, "msm")
		jb.sp.SetStr("strategy", GZKP.String())
		jb.sp.SetInt("n", int64(t.n))
		gm := t.geometry(ts.cfg.SignedBuckets)
		i := slices.IndexFunc(shared, func(js []*job) bool { return js[0].Table.geometry(ts.cfg.SignedBuckets) == gm })
		if i < 0 {
			shared = append(shared, nil)
			i = len(shared) - 1
		}
		shared[i] = append(shared[i], jb)
	}
	for _, js := range shared {
		t := js[0].Table
		buildPlan(ts.l, t.g.Fr, scalars, t.geometry(ts.cfg.SignedBuckets), ts.cfg, func(p *plan) {
			if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
				reg.Counter("msm.plans").Add(1)
			}
			for _, j := range js {
				ts.apply(j, p)
			}
		})
	}
	return nil
}

func (j *Job) done() {
	if j.Done != nil {
		j.Done()
	}
}

// apply pushes j's bucket groups, weighted by their entries' cost — or,
// under NoLoadBalance, one static contiguous run of groups per worker (the
// "GZKP-no-LB" ablation) — and then its combine. Each group's segment sums
// S_{j,r} land, still affine, in sums[j·M+r].
func (ts *Tasks) apply(j *job, p *plan) {
	t := j.Table
	sums := newPoints(t.g, len(p.offsets)-1)
	// A group weighs its entries' cost: on BN254, BenchmarkBucketKernel
	// puts a G2 entry at about 2.5 G1 entries.
	cost := int64(2)
	if t.g.K.Degree() > 1 {
		cost = 5
	}
	groups, per := len(p.cuts)-1, 1
	weight := func(i int) int64 { return cost * p.entries[i] }
	if ts.cfg.NoLoadBalance {
		per = (groups + ts.cfg.workers() - 1) / ts.cfg.workers()
		weight = func(int) int64 { return 0 }
	}
	run := func(w, i int) error {
		bw := ts.worker(w, t.g, p.maxEntries, p.maxSegs)
		for gi := i * per; gi < min((i+1)*per, groups); gi++ {
			bw.reduce(t, p, p.order[p.cuts[gi]:p.cuts[gi+1]], sums)
		}
		return nil
	}
	ts.l.Fan((groups+per-1)/per, weight, run, func(int) error {
		ts.combine(j, p, sums)
		return nil
	})
}

// combine pushes the bucket reduction of j's sums: combineShape's lanes in
// about one contiguous run of chunks per worker, each run's lanes walking
// their chunks together as batched affine running sums, then one Horner
// chain over the lanes, which completes j.
func (ts *Tasks) combine(j *job, p *plan, sums []curve.Affine) {
	t, m := j.Table, p.m
	numBuckets := len(sums)/m - 1 // bucket 0 unused
	chunks, shift, fold := combineShape(m, numBuckets, ts.cfg.workers())
	items := min(ts.cfg.workers(), chunks)
	lanes := newPoints(t.g, 2*chunks*m)
	run := func(w, i int) error {
		c0, c1 := i*chunks/items, (i+1)*chunks/items
		bw := ts.worker(w, t.g, combineSlots*(c1-c0)*m, 0)
		bw.runningSums(sums, m, numBuckets, 1<<shift, c0, c1)
		for c := c0; c < c1; c++ {
			for r := 0; r < m; r++ {
				s := bw.lane(c, r, m)
				setPoint(&lanes[2*(c*m+r)], bw.add.Point(s))
				setPoint(&lanes[2*(c*m+r)+1], bw.add.Point(s+1))
			}
		}
		return nil
	}
	ts.l.Fan(items, func(int) int64 { return combineWeight }, run, func(int) error {
		pt, doubles := t.chain(lanes, chunks, fold)
		st := t.stats(p, doubles)
		*j.Out = Result{pt, st}
		recordMSM(j.ctx, j.sp, st)
		j.sp.End()
		j.done()
		return nil
	})
}

// scratchKey keys a worker's bucket scratch for one group in its runtime
// scratch.
type scratchKey struct{ g *curve.Group }

// worker returns worker w's scratch for g, grown to at least slots adder
// slots and segs kernel segments.
func (ts *Tasks) worker(w int, g *curve.Group, slots, segs int) *bucketWorker {
	m := ts.l.Scratch(w)
	bw, _ := m[scratchKey{g}].(*bucketWorker)
	if bw == nil {
		bw = &bucketWorker{}
		m[scratchKey{g}] = bw
	}
	if bw.add == nil || slots > bw.slots {
		bw.add, bw.slots = g.NewAffineAdder(slots), slots
	}
	if segs > len(bw.start) {
		bw.start, bw.live = make([]int32, segs), make([]int32, segs)
	}
	return bw
}

// newPoints returns n points at infinity of g over one limb slab.
func newPoints(g *curve.Group, n int) []curve.Affine {
	w := g.K.Words()
	limbs := make([]uint64, 2*w*n)
	pts := make([]curve.Affine, n)
	for i := range pts {
		b := limbs[2*w*i : 2*w*(i+1)]
		pts[i] = curve.Affine{X: b[:w:w], Y: b[w:], Inf: true}
	}
	return pts
}

// setPoint copies p into dst's limbs.
func setPoint(dst *curve.Affine, p curve.Affine) {
	copy(dst.X, p.X)
	copy(dst.Y, p.Y)
	dst.Inf = p.Inf
}
