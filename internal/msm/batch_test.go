package msm

import (
	"context"
	mrand "math/rand"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
)

// runJobs runs one task list of one MSM per slice, each against job's
// bases, and returns the results in slice order.
func runJobs(ctx context.Context, cfg Config, slices [][]ff.Element, job Job) ([]Result, error) {
	res := make([]Result, len(slices))
	err := par.Run(ctx, cfg.workers(), func(ctx context.Context, l *par.List) error {
		ts := NewTasks(l, cfg)
		for i, s := range slices {
			job.Out = &res[i]
			if err := ts.Add(ctx, s, job); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// TestComputeManyDifferential checks one task list of MSMs over shared
// bases, one job per slice, against solo ComputeCtx per slice for the
// strategies the prover dispatches (GZKP through a one-shot table),
// including a short (prefix) slice.
func TestComputeManyDifferential(t *testing.T) {
	g := curve.Get(curve.BN254).G1
	points, _ := testVectors(g, 256, 11, 0)
	rng := mrand.New(mrand.NewSource(12))
	slices := make([][]ff.Element, 4)
	for i := range slices {
		n := len(points)
		if i == 3 {
			n = len(points) - 40 // prefix slice: batched K-query shape
		}
		s := make([]ff.Element, n)
		for j := range s {
			s[j] = g.Fr.Rand(rng)
		}
		slices[i] = s
	}
	for _, cfg := range []Config{
		{Strategy: GZKP, SignedBuckets: true},
		{Strategy: SignedDigitGLV},
		{Strategy: PippengerWindows},
	} {
		got, err := runJobs(context.Background(), cfg, slices, Job{G: g, Points: points})
		if err != nil {
			t.Fatalf("%v: %v", cfg.Strategy, err)
		}
		if len(got) != len(slices) {
			t.Fatalf("%v: got %d results", cfg.Strategy, len(got))
		}
		for i, s := range slices {
			want, _, err := ComputeCtx(context.Background(), g, points[:len(s)], s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !g.EqualAffine(got[i].Point, want) {
				t.Fatalf("%v: batch slice %d differs from solo MSM", cfg.Strategy, i)
			}
		}
	}
}

// TestTableComputeMany checks one task list of MSMs against one kept table
// (the proving-key shape) against per-slice table computes.
func TestTableComputeMany(t *testing.T) {
	g := curve.Get(curve.BLS12381).G1
	points, _ := testVectors(g, 128, 13, 0)
	cfg := Config{Strategy: GZKP, SignedBuckets: true}
	table, err := Preprocess(g, points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(14))
	slices := make([][]ff.Element, 3)
	for i := range slices {
		s := make([]ff.Element, len(points))
		for j := range s {
			s[j] = g.Fr.Rand(rng)
		}
		slices[i] = s
	}
	got, err := runJobs(context.Background(), cfg, slices, Job{Table: table})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range slices {
		want, _, err := table.ComputeCtx(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !g.EqualAffine(got[i].Point, want) {
			t.Fatalf("table batch slice %d differs", i)
		}
	}
	if _, err := runJobs(context.Background(), cfg,
		[][]ff.Element{make([]ff.Element, len(points)+1)}, Job{G: g, Points: points}); err == nil {
		t.Fatal("oversized batch slice accepted")
	}
}
