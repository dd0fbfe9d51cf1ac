package groth16

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/gpusim"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/r1cs"
	"gzkp/internal/resilience"
	"gzkp/internal/telemetry"
)

// faultFixture sets up a medium circuit with preprocessed GZKP tables and
// returns everything a fault-injected Prove needs. budget caps the table
// memory so an OOM degradation has room to move the checkpoint interval.
func faultFixture(t *testing.T, budget int64) (*ProvingKey, *VerifyingKey, *r1cs.System, []ff.Element, ff.Element, ProveConfig) {
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
		MSM: msm.Config{Strategy: msm.GZKP, MemoryBudget: budget},
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

// A forced OOM on the first MSM (launch step 7: the 7 NTTs use steps 0-6)
// degrades this run's copy of the A-query table to a larger checkpoint
// interval and the proof still verifies. The key itself — shared by every
// device worker in the service — is left untouched.
func TestProveOOMDegradesAndVerifies(t *testing.T) {
	pk, vk, sys, w, out, cfg := faultFixture(t, 1<<17)
	baseM := pk.tables["A"].Checkpoint()
	cfg.Faults = gpusim.NewFaultPlan(1, gpusim.Fault{Kind: gpusim.FaultOOM, Device: 0, Step: 7})
	proof, stats, err := Prove(pk, sys, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, []ff.Element{out}); err != nil {
		t.Fatalf("proof after OOM degradation rejected: %v", err)
	}
	if gotM := stats.MSMStats[0].Checkpoint; gotM <= baseM {
		t.Fatalf("degraded checkpoint interval M=%d not larger than original M=%d", gotM, baseM)
	}
	if gotM := pk.tables["A"].Checkpoint(); gotM != baseM {
		t.Fatalf("OOM recovery wrote the shared key: table M=%d, was %d", gotM, baseM)
	}
	if stats.MSMOps != 5 {
		t.Fatalf("MSM stage ran %d MSMs after recovery, want 5", stats.MSMOps)
	}
}

// Two device workers proving under one preprocessed key both hit an OOM on
// their first MSM. The degrade state is per run, so under -race this must
// stay silent (the shared pk.tables map used to be written here) and both
// proofs verify.
func TestProveConcurrentOOMSharedKey(t *testing.T) {
	pk, vk, sys, w, out, cfg := faultFixture(t, 1<<17)
	var wg sync.WaitGroup
	proofs := make([]*Proof, 2)
	errs := make([]error, 2)
	for i := range proofs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Faults = gpusim.NewFaultPlan(1, gpusim.Fault{Kind: gpusim.FaultOOM, Device: 0, Step: 7})
			proofs[i], _, errs[i] = Prove(pk, sys, w, c, nil)
		}()
	}
	wg.Wait()
	for i, p := range proofs {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if err := Verify(vk, p, []ff.Element{out}); err != nil {
			t.Fatalf("worker %d: proof after OOM degradation rejected: %v", i, err)
		}
	}
}

// The launch gate and the OOM hook sit in the one per-base-set MSM step, so
// a k=4 batch recovers in place exactly like a single proof: an OOM on the
// A launch (step 7, retried as step 8) degrades the table for all four
// slices, two transients on the B2 launch (steps 9-10) retry, and every proof
// verifies.
func TestProveBatchRecoversInPlace(t *testing.T) {
	pk, vk, sys, w, out, cfg := faultFixture(t, 1<<17)
	baseM := pk.tables["A"].Checkpoint()
	cfg.Faults = gpusim.NewFaultPlan(1,
		gpusim.Fault{Kind: gpusim.FaultOOM, Device: 0, Step: 7},
		gpusim.Fault{Kind: gpusim.FaultTransient, Device: 0, Step: 9, Times: 2})
	sleeps := 0
	cfg.Retry.Sleep = func(context.Context, time.Duration) error { sleeps++; return nil }
	wits := [][]ff.Element{w, w, w, w}
	proofs, st, err := ProveBatch(pk, sys, wits, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sleeps != 2 {
		t.Fatalf("retried %d times, want 2", sleeps)
	}
	for i := 0; i < len(wits); i++ {
		if gotM := st.MSMStats[i].Checkpoint; gotM <= baseM {
			t.Fatalf("slice %d of A ran at M=%d, want degraded (> %d)", i, gotM, baseM)
		}
		if err := Verify(vk, proofs[i], []ff.Element{out}); err != nil {
			t.Fatalf("batch proof %d rejected after recovery: %v", i, err)
		}
	}
}

// Transient launch faults retry with the configured backoff and the proof
// verifies.
func TestProveTransientRetriesAndVerifies(t *testing.T) {
	pk, vk, sys, w, out, cfg := faultFixture(t, 1<<20)
	cfg.Faults = gpusim.NewFaultPlan(1, gpusim.Fault{Kind: gpusim.FaultTransient, Device: 0, Step: 8, Times: 2})
	sleeps := 0
	cfg.Retry.Sleep = func(context.Context, time.Duration) error { sleeps++; return nil }
	proof, _, err := Prove(pk, sys, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sleeps != 2 {
		t.Fatalf("retried %d times, want 2", sleeps)
	}
	if err := Verify(vk, proof, []ff.Element{out}); err != nil {
		t.Fatal(err)
	}
}

// The single-device prover has nowhere to fail over: a lost device is a
// real error, not a hang or a crash.
func TestProveDeviceLostIsFatal(t *testing.T) {
	pk, _, sys, w, _, cfg := faultFixture(t, 1<<20)
	cfg.Faults = gpusim.NewFaultPlan(1, gpusim.Fault{Kind: gpusim.FaultDeviceLost, Device: 0, Step: 9})
	_, _, err := Prove(pk, sys, w, cfg, nil)
	if err == nil || resilience.Classify(err) != resilience.DeviceLost {
		t.Fatalf("want device-lost error, got %v", err)
	}
}

// An injected panic in either stage returns as *resilience.PanicError.
func TestProvePanicSurfacesAsError(t *testing.T) {
	for _, step := range []int{2, 10} { // NTT stage; fourth MSM
		pk, _, sys, w, _, cfg := faultFixture(t, 1<<20)
		cfg.Faults = gpusim.NewFaultPlan(1, gpusim.Fault{Kind: gpusim.FaultPanic, Device: 0, Step: step})
		_, _, err := Prove(pk, sys, w, cfg, nil)
		var pe *resilience.PanicError
		if err == nil || !errors.As(err, &pe) {
			t.Fatalf("step %d: want PanicError, got %v", step, err)
		}
	}
}

// A transient fault that outlasts the retry budget surfaces the error,
// still classified as transient.
func TestProveTransientRetriesExhausted(t *testing.T) {
	pk, _, sys, w, _, cfg := faultFixture(t, 1<<20)
	cfg.Faults = gpusim.NewFaultPlan(1, gpusim.Fault{Kind: gpusim.FaultTransient, Device: 0, Step: 0, Times: 100})
	cfg.Retry.MaxAttempts = 3
	cfg.Retry.Sleep = func(context.Context, time.Duration) error { return nil }
	_, _, err := Prove(pk, sys, w, cfg, nil)
	if err == nil || resilience.Classify(err) != resilience.Transient {
		t.Fatalf("want transient exhaustion, got %v", err)
	}
}

// Every launch recovery leaves exactly one telemetry record, on device 0's
// track for a standalone prove: each transient retry a "retry" event, each
// OOM degrade an "oom-degrade" event, tallied under the matching
// resilience.<class> counter.
func TestProveFaultEventsRecorded(t *testing.T) {
	cases := []struct {
		name, event, counter string
		fault                gpusim.Fault
		recoveries           int
	}{
		{"transient-retry", "retry", "resilience.transient",
			gpusim.Fault{Kind: gpusim.FaultTransient, Device: 0, Step: 8, Times: 2}, 2},
		{"oom-degrade", "oom-degrade", "resilience.oom",
			gpusim.Fault{Kind: gpusim.FaultOOM, Device: 0, Step: 7}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pk, _, sys, w, _, cfg := faultFixture(t, 1<<17)
			cfg.Faults = gpusim.NewFaultPlan(1, tc.fault)
			cfg.Retry.Sleep = func(context.Context, time.Duration) error { return nil }
			tr := telemetry.New()
			ctx := telemetry.NewContext(context.Background(), tr)
			if _, _, err := ProveCtx(ctx, pk, sys, w, cfg, nil); err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, ev := range tr.Events() {
				if ev.Cat != "resilience" {
					continue
				}
				if ev.Name != tc.event {
					t.Fatalf("unexpected %q event", ev.Name)
				}
				if ev.Track != telemetry.DeviceTrack(0) {
					t.Fatalf("%q event on track %d, want %d", ev.Name, ev.Track, telemetry.DeviceTrack(0))
				}
				got++
			}
			if got != tc.recoveries {
				t.Fatalf("recorded %d %q events for %d recoveries", got, tc.event, tc.recoveries)
			}
			if c := tr.Registry().Snapshot().Counters[tc.counter]; c != int64(tc.recoveries) {
				t.Fatalf("counter %s = %d, want %d", tc.counter, c, tc.recoveries)
			}
		})
	}
}

// A prove under a span on device 1's track — a service dispatch on
// slot 1 — puts its stage spans and launch-recovery events on that
// track, not on device 0's.
func TestProveSpansFollowDeviceTrack(t *testing.T) {
	pk, _, sys, w, _, cfg := faultFixture(t, 1<<20)
	cfg.Faults = gpusim.NewFaultPlan(1, gpusim.Fault{Kind: gpusim.FaultTransient, Device: 0, Step: 8})
	cfg.Retry.Sleep = func(context.Context, time.Duration) error { return nil }
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
	retries := 0
	for _, ev := range tr.Events() {
		if ev.Cat == "resilience" && ev.Name == "retry" {
			retries++
			if ev.Track != want {
				t.Errorf("retry event on track %d, want %d", ev.Track, want)
			}
		}
	}
	if retries != 1 {
		t.Fatalf("recorded %d retry events, want 1", retries)
	}
}

// Cancelling mid-prove returns ctx.Err() promptly and leaks no worker
// goroutines. The reference MSM keeps the medium circuit's prove running
// well past the 5 ms cancellation point.
func TestProveCancellationMidProve(t *testing.T) {
	pk, _, sys, w, _, cfg := faultFixture(t, 1<<20)
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
	pk, _, sys, w, _, cfg := faultFixture(t, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ProveCtx(ctx, pk, sys, w, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
