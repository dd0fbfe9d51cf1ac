package groth16

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/r1cs"
	"gzkp/internal/telemetry"
)

// proveFixture sets up a medium circuit with preprocessed GZKP tables and
// returns everything a Prove needs. The small table budget makes every
// table checkpointed (M > 1), so proving also runs the window reduction.
func proveFixture(t *testing.T) (*ProvingKey, *VerifyingKey, *r1cs.System, []ff.Element, ff.Element, ProveConfig) {
	t.Helper()
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys, m := mediumCircuit(f, 2)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProveConfig{
		NTT: ntt.Config{Strategy: ntt.GZKP},
		MSM: msm.Config{Strategy: msm.GZKP, MemoryBudget: 1 << 17},
	}
	if err := pk.Preprocess(cfg.MSM); err != nil {
		t.Fatal(err)
	}
	x := f.FromUint64(7)
	out := m.Hash2(m.Hash2(x, f.FromUint64(0)), f.FromUint64(1))
	w, err := sys.Solve([]ff.Element{out}, []ff.Element{x})
	if err != nil {
		t.Fatal(err)
	}
	return pk, vk, sys, w, out, cfg
}

// Concurrent provers share one preprocessed key: two single proofs and a
// k = 2 batch run at once. Under -race this must stay silent, every proof
// verifies, and the key's tables are the same tables afterwards, pointer
// for pointer, each deep-equal to a fresh build from the same points:
// proving never writes a shared key.
func TestProveConcurrentSharedKey(t *testing.T) {
	pk, vk, sys, w, out, cfg := proveFixture(t)
	before := maps.Clone(pk.tables)
	var wg sync.WaitGroup
	proofs := make([][]*Proof, 3)
	errs := make([]error, 3)
	for i := range proofs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wits := [][]ff.Element{w}
			if i == 2 {
				wits = append(wits, w)
			}
			proofs[i], _, errs[i] = ProveBatch(pk, sys, wits, cfg, nil)
		}()
	}
	wg.Wait()
	for i, ps := range proofs {
		if errs[i] != nil {
			t.Fatalf("prover %d: %v", i, errs[i])
		}
		for j, p := range ps {
			if err := Verify(vk, p, []ff.Element{out}); err != nil {
				t.Fatalf("prover %d proof %d rejected: %v", i, j, err)
			}
		}
	}
	if len(pk.tables) != len(before) || len(before) != 5 {
		t.Fatalf("key holds %d tables after proving, %d before; want 5", len(pk.tables), len(before))
	}
	c := curve.Get(pk.CurveID)
	for _, q := range []struct {
		name string
		g    *curve.Group
		pts  []curve.Affine
	}{
		{"A", c.G1, pk.A}, {"B1", c.G1, pk.B1}, {"B2", c.G2, pk.B2},
		{"K", c.G1, pk.K}, {"H", c.G1, pk.H},
	} {
		if pk.tables[q.name] != before[q.name] {
			t.Fatalf("table %s replaced while proving", q.name)
		}
		fresh, err := msm.Preprocess(q.g, q.pts, cfg.MSM)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, pk.tables[q.name]) {
			t.Fatalf("table %s written while proving", q.name)
		}
	}
}

// A prove under a span on device 1's track — a service dispatch on
// slot 1 — puts its stage spans on that track, not on device 0's.
func TestProveSpansFollowDeviceTrack(t *testing.T) {
	pk, _, sys, w, _, cfg := proveFixture(t)
	tr := telemetry.New()
	want := telemetry.DeviceTrack(1)
	dsp, ctx := telemetry.StartSpanOn(telemetry.NewContext(context.Background(), tr), want, "dispatch")
	_, _, err := ProveCtx(ctx, pk, sys, w, cfg, nil)
	dsp.End()
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, sp := range tr.Spans() {
		if sp.Name == "poly" || sp.Name == "msm-stage" {
			stages[sp.Name]++
			if sp.Track != want {
				t.Errorf("span %q on track %d, want %d", sp.Name, sp.Track, want)
			}
		}
	}
	if stages["poly"] != 1 || stages["msm-stage"] != 1 {
		t.Fatalf("stage spans %v, want one poly and one msm-stage", stages)
	}
}

// Cancelling mid-prove returns ctx.Err() promptly and leaks no worker
// goroutines. The reference MSM keeps the medium circuit's prove running
// well past the 5 ms cancellation point.
func TestProveCancellationMidProve(t *testing.T) {
	pk, _, sys, w, _, cfg := proveFixture(t)
	cfg.MSM = msm.Config{Strategy: msm.Reference}
	// The task list's workers live for the process: start them before
	// counting.
	if _, _, err := ProveCtx(context.Background(), pk, sys, w, cfg, nil); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, _, err := ProveCtx(ctx, pk, sys, w, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
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

func TestProvePreCanceled(t *testing.T) {
	pk, _, sys, w, _, cfg := proveFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ProveCtx(ctx, pk, sys, w, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
