package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/par"
	"gzkp/internal/workload"
)

func smallPipeline(t testing.TB, id curve.ID) *workload.Pipeline {
	t.Helper()
	app := workload.App{Name: "test", VectorSize: 500, Curve: id, Sparsity: 0.6}
	p, err := workload.BuildPipeline(app, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineShape(t *testing.T) {
	p := smallPipeline(t, curve.BN254)
	e := NewGZKP(curve.BN254)
	res, err := e.ProvePipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NTTStats) != 7 {
		t.Fatalf("POLY ran %d NTTs, want 7", len(res.NTTStats))
	}
	if len(res.MSMStats) != 5 || len(res.Outputs) != 5 {
		t.Fatalf("MSM stage ran %d ops, want 5", len(res.MSMStats))
	}
	if res.TotalNS() <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestEnginesAgree(t *testing.T) {
	// GZKP and baseline engines must compute identical MSM outputs —
	// the strategies differ only in execution plan.
	for _, id := range []curve.ID{curve.BN254, curve.MNT4753Sim} {
		p := smallPipeline(t, id)
		rG, err := NewGZKP(id).ProvePipeline(p)
		if err != nil {
			t.Fatal(err)
		}
		rB, err := NewBaseline(id).ProvePipeline(p)
		if err != nil {
			t.Fatal(err)
		}
		g := curve.Get(id).G1
		for i := range rG.Outputs {
			if !g.EqualAffine(rG.Outputs[i], rB.Outputs[i]) {
				t.Fatalf("curve %v: output %d differs between engines", id, i)
			}
		}
	}
}

func TestCurveMismatchRejected(t *testing.T) {
	p := smallPipeline(t, curve.BN254)
	if _, err := NewGZKP(curve.BLS12381).ProvePipeline(p); err == nil {
		t.Fatal("curve mismatch accepted")
	}
}

func TestMNT4753SimPipeline(t *testing.T) {
	// The 753-bit curve runs the full pipeline even without a pairing.
	p := smallPipeline(t, curve.MNT4753Sim)
	e := NewGZKP(curve.MNT4753Sim)
	e.MSM.MemoryBudget = 64 << 20 // force a checkpoint interval > 1
	res, err := e.ProvePipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MSMStats[0].Checkpoint < 1 {
		t.Fatal("checkpoint interval missing")
	}
}

func TestStrategyOverrides(t *testing.T) {
	p := smallPipeline(t, curve.BN254)
	e := &Engine{
		Curve: curve.Get(curve.BN254),
		NTT:   ntt.Config{Strategy: ntt.SerialPrecomp},
		MSM:   msm.Config{Strategy: msm.Straus, WindowBits: 3},
	}
	ref, err := NewGZKP(curve.BN254).ProvePipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ProvePipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	g := curve.Get(curve.BN254).G1
	for i := range ref.Outputs {
		if !g.EqualAffine(ref.Outputs[i], got.Outputs[i]) {
			t.Fatalf("strategy override changed result %d", i)
		}
	}
}

// Cancelling mid-pipeline returns ctx.Err() promptly and leaks no worker
// goroutines.
func TestCancellationMidPipeline(t *testing.T) {
	app := workload.App{Name: "cancel", VectorSize: 8000, Curve: curve.BN254, Sparsity: 0.6}
	p, err := workload.BuildPipeline(app, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewGZKP(curve.BN254)
	e.MSM.MemoryBudget = 1 // single checkpoint: no heavy table build
	// The runtime's workers live for the process: start them before
	// counting.
	if err := par.Run(context.Background(), e.MSM.Workers, func(context.Context, *par.List) error { return nil }); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := e.ProvePipelineCtx(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got res=%v err=%v", res, err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v", el)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

func TestPreCanceledContext(t *testing.T) {
	p := smallPipeline(t, curve.BN254)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewGZKP(curve.BN254).ProvePipelineCtx(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
