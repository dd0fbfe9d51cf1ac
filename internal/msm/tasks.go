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
// with no points). Done, if set, runs once *Out is final, with the Ops of
// the worker it runs on for G. Buf is the job's memory (nil: a new one).
type Job struct {
	Table  *Table
	G      *curve.Group
	Points []curve.Affine
	Out    *Result
	Done   func(ops *curve.Ops)
	Buf    *Buf
}

// Buf is one MSM's memory, which a caller may keep for its next MSM of the
// same shape: the plan the job builds if it leads its geometry in its Add,
// and against a kept table its bucket sums and lanes. A one-shot table's
// are made per MSM: at M = windows they outweigh the rest of a prove's
// buffers. It serves one Add at a time.
type Buf struct {
	plan        plan
	sums, lanes []curve.Affine
}

// OneShot builds the table Add makes for a Job with Points and no Table:
// one checkpoint, a copy of points, over into's memory when set. A caller
// with k MSMs over the same points passes it as each one's Table.
func OneShot(g *curve.Group, points []curve.Affine, cfg Config, into *Table) (*Table, error) {
	cfg.CheckpointInterval = 0 // levels would cost more doublings than one Horner chain saves
	return newTable(context.Background(), g, points, cfg, false, into)
}

// keep returns where a job's MSM keeps its bucket sums and lanes: its
// Buf's against a kept table, else fresh ones.
func (j *job) keep() (sums, lanes *[]curve.Affine) {
	if j.Table.kept {
		return &j.Buf.sums, &j.Buf.lanes
	}
	return new([]curve.Affine), new([]curve.Affine)
}

// points returns n points of g at infinity, reusing *keep's when it fits.
func points(keep *[]curve.Affine, g *curve.Group, n int) []curve.Affine {
	if len(*keep) != n || len((*keep)[0].X) != g.K.Words() {
		*keep = newPoints(g, n)
	}
	for i := range *keep {
		(*keep)[i].Inf = true
	}
	return *keep
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
	jbs := make([]job, 0, len(jobs)) // the GZKP jobs
	for _, j := range jobs {
		if j.Buf == nil {
			j.Buf = new(Buf)
		}
		t := j.Table
		if t == nil {
			if len(scalars) > len(j.Points) {
				return fmt.Errorf("msm: %d scalars vs %d points", len(scalars), len(j.Points))
			}
			if ts.cfg.Strategy != GZKP || len(j.Points) == 0 {
				j := j // the task's own copy: a captured loop variable escapes on every path
				ts.l.Push(int64(len(scalars)), func(w int) error {
					p, st, err := ComputeCtx(ctx, j.G, j.Points[:len(scalars)], scalars, ts.cfg)
					if err != nil {
						return err
					}
					*j.Out = Result{p, st}
					j.done(ts.worker(w, j.G, 0, 0).ops)
					return nil
				})
				continue
			}
			var err error
			if t, err = OneShot(j.G, j.Points, ts.cfg, nil); err != nil {
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
		jbs = append(jbs, job{Job: j})
		jb := &jbs[len(jbs)-1]
		jb.sp, jb.ctx = telemetry.StartSpan(ctx, "msm")
		jb.sp.SetStr("strategy", GZKP.String())
		jb.sp.SetInt("n", int64(t.n))
	}
	gm := func(j job) geometry { return j.Table.geometry(ts.cfg.SignedBuckets) }
	for i, lead := range jbs {
		if slices.ContainsFunc(jbs[:i], func(j job) bool { return gm(j) == gm(lead) }) {
			continue // planned with an earlier job of its geometry
		}
		t, rest := lead.Table, jbs[i:]
		buildPlan(ts.l, t.g.Fr, scalars, gm(lead), ts.cfg, &lead.Buf.plan, func(p *plan) {
			if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
				reg.Counter("msm.plans").Add(1)
			}
			for k := range rest {
				if gm(rest[k]) == p.geometry {
					ts.apply(&rest[k], p)
				}
			}
		})
	}
	return nil
}

func (j *Job) done(ops *curve.Ops) {
	if j.Done != nil {
		j.Done(ops)
	}
}

// apply pushes j's bucket groups, weighted by their entries' cost — or,
// under NoLoadBalance, one static contiguous run of groups per worker (the
// "GZKP-no-LB" ablation) — and then its combine. Each group's segment sums
// S_{j,r} land, still affine, in sums[j·M+r].
func (ts *Tasks) apply(j *job, p *plan) {
	t := j.Table
	keep, _ := j.keep()
	sums := points(keep, t.g, len(p.offsets)-1)
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
	_, keep := j.keep()
	lanes := points(keep, t.g, 2*chunks*m)
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
	ts.l.Fan(items, func(int) int64 { return combineWeight }, run, func(w int) error {
		bw := ts.worker(w, t.g, 0, 0)
		pt, doubles := t.chain(bw, lanes, chunks, fold)
		st := t.stats(p, doubles)
		*j.Out = Result{pt, st}
		recordMSM(j.ctx, j.sp, st)
		j.sp.End()
		j.done(bw.ops)
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
		bw = &bucketWorker{ops: g.NewOps()}
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
