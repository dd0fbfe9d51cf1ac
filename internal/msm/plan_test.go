package msm

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
)

// sortedEntries is the counting sort a plan's pindex must equal, written
// out directly: every nonzero digit of the recoded scalars (zero past
// their end) as ±(e+1), bucketed by segment |d|·M + (w mod M) in
// (point, window) order, the segments concatenated.
func sortedEntries(t *Table, scalars []ff.Element, signed bool) []int32 {
	padded := make([]ff.Element, t.n)
	for i := range padded {
		padded[i] = t.g.Fr.Zero()
	}
	copy(padded, scalars)
	dm := recodeDigits(newDigits(t.g.Fr, padded, t.k), signed)
	segs := make([][]int32, (bucketCount(t.k, signed)+1)*t.m)
	for i := 0; i < t.n; i++ {
		for w := 0; w < t.windows; w++ {
			d, e := dm.digit(i, w), int32((w/t.m)*t.n+i+1)
			if d < 0 {
				d, e = -d, -e
			}
			if d != 0 {
				s := int(d)*t.m + w%t.m
				segs[s] = append(segs[s], e)
			}
		}
	}
	out := []int32{}
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// TestPlanParallelMatchesSequential: a plan built over 2, 3 or 8 point
// ranges is the one-range plan — pindex, offsets, loads and order alike —
// and that plan's pindex is the counting sort written out directly, for
// unsigned and signed digits, kept (M = 3) and one-shot tables, dense,
// sparse and all-zero scalars, and scalars shorter than the table.
func TestPlanParallelMatchesSequential(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	ctx := context.Background()
	points, dense := testVectors(g, 301, 89, 0)
	_, sparse := testVectors(g, 301, 97, 0.8)
	zero := make([]ff.Element, len(points))
	for i := range zero {
		zero[i] = g.Fr.Zero()
	}
	for _, signed := range []bool{false, true} {
		for _, m := range []int{0, 3} { // one-shot, kept
			cfg := Config{Strategy: GZKP, WindowBits: 7, CheckpointInterval: m, SignedBuckets: signed}
			table, err := newTable(ctx, g, points, cfg, m > 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, scalars := range map[string][]ff.Element{
				"dense": dense, "sparse": sparse, "zero": zero, "short": dense[:200],
			} {
				what := fmt.Sprintf("signed=%v M=%d %s", signed, table.m, name)
				var want *plan
				for _, workers := range []int{1, 2, 3, 8} {
					cfg.Workers = workers
					p, err := buildTestPlan(ctx, table, scalars, cfg)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", what, workers, err)
					}
					if want == nil {
						want = p
						if direct := sortedEntries(table, scalars, signed); !reflect.DeepEqual(p.pindex, direct) {
							t.Fatalf("%s: one-range pindex is not the counting sort", what)
						}
						continue
					}
					for _, f := range []struct {
						field     string
						got, want any
					}{
						{"pindex", p.pindex, want.pindex}, {"offsets", p.offsets, want.offsets},
						{"loads", p.loads, want.loads}, {"order", p.order, want.order},
					} {
						if !reflect.DeepEqual(f.got, f.want) {
							t.Fatalf("%s workers=%d: %s differs from the one-range plan", what, workers, f.field)
						}
					}
				}
			}
		}
	}
}

// TestPlanBufReuse: one Buf serves a full, a short, a sparse and again a
// full scalar vector, against a one-shot and a kept table, on G1 and G2,
// and every MSM equals the same MSM without a Buf. The short vector after
// the full one reads the previous plan's digit rows unless they are
// zeroed, and every MSM reads stale bucket sums unless they are reset.
func TestPlanBufReuse(t *testing.T) {
	ctx := context.Background()
	for _, g := range []*curve.Group{curve.Get(curve.BN254).G1, curve.Get(curve.BN254).G2} {
		points, dense := testVectors(g, 301, 89, 0)
		_, sparse := testVectors(g, 301, 97, 0.8)
		cfg := Config{Strategy: GZKP, SignedBuckets: true, CheckpointInterval: 3}
		kept, err := Preprocess(g, points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func(tbl *Table, scalars []ff.Element, b *Buf) curve.Affine {
			var res Result
			err := par.Run(ctx, cfg.workers(), func(ctx context.Context, l *par.List) error {
				return NewTasks(l, cfg).Add(ctx, scalars, Job{Table: tbl, G: g, Points: points, Out: &res, Buf: b})
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Point
		}
		for _, tbl := range []*Table{nil, kept} {
			var buf Buf
			for i, scalars := range [][]ff.Element{dense, dense[:50], sparse, dense} {
				if got, want := run(tbl, scalars, &buf), run(tbl, scalars, nil); !g.EqualAffine(got, want) {
					t.Fatalf("%s kept=%v vector %d: MSM over a reused Buf differs", g.Name, tbl != nil, i)
				}
			}
		}
	}
}
