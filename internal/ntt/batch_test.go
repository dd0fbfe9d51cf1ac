package ntt

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/par"
)

func TestTransformBatchInverseRoundTrip(t *testing.T) {
	f := frBN254(t)
	d, _ := NewDomain(f, 128)
	in := randVector(f, d.N, 55)
	buf := append(f.CopyVector(in), f.CopyVector(in)...)
	if _, err := d.TransformStridedCtx(context.Background(), buf, 2, Forward, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TransformStridedCtx(context.Background(), buf, 2, Inverse, Config{}); err != nil {
		t.Fatal(err)
	}
	for j := range buf {
		if !f.Equal(buf[j], in[j%d.N]) {
			t.Fatal("batch inverse roundtrip failed")
		}
	}
}

// TestTransformBatchDifferential checks the strided batch against k
// independent Transform calls on random vectors, in both directions, over
// both curves' scalar fields.
func TestTransformBatchDifferential(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		f := curve.Get(id).Fr
		d, err := NewDomain(f, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []Direction{Forward, Inverse} {
			const k = 7
			want := make([][]ff.Element, k)
			strided := make([]ff.Element, 0, k*d.N)
			for i := 0; i < k; i++ {
				in := randVector(f, d.N, int64(100+i))
				want[i] = f.CopyVector(in)
				if _, err := d.Transform(want[i], dir, Config{Strategy: GZKP}); err != nil {
					t.Fatal(err)
				}
				strided = append(strided, f.CopyVector(in)...)
			}
			st, err := d.TransformStridedCtx(context.Background(), strided, k, dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Batches != k {
				t.Fatalf("strided stats report %d batches, want %d", st.Batches, k)
			}
			for i := 0; i < k; i++ {
				for j := 0; j < d.N; j++ {
					if !f.Equal(strided[i*d.N+j], want[i][j]) {
						t.Fatalf("%s dir %d: strided vector %d differs at %d", f.Name(), dir, i, j)
					}
				}
			}
		}
	}
}

func TestTransformStridedValidation(t *testing.T) {
	f := frBN254(t)
	d, _ := NewDomain(f, 64)
	if _, err := d.TransformStridedCtx(context.Background(), f.NewVector(63*2), 2, Forward, Config{}); err == nil {
		t.Fatal("wrong-size strided buffer accepted")
	}
	if _, err := d.TransformStridedCtx(context.Background(), nil, 0, Forward, Config{}); err != nil {
		t.Fatalf("empty strided batch should be a no-op: %v", err)
	}
}

// TestTransformBatchCancellation cancels a strided batch mid-run and checks
// both that the cancellation surfaces as context.Canceled and that no
// worker goroutines leak (run under -race in CI).
func TestTransformBatchCancellation(t *testing.T) {
	f := frBN254(t)
	d, err := NewDomain(f, 1024)
	if err != nil {
		t.Fatal(err)
	}
	const k = 32
	// The GOMAXPROCS runtime's workers live for the process: start them
	// before counting.
	if err := par.Run(context.Background(), 0, func(context.Context, *par.List) error { return nil }); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		strided := make([]ff.Element, 0, k*d.N)
		for i := 0; i < k; i++ {
			strided = append(strided, randVector(f, d.N, int64(300+i))...)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			cancel()
		}()
		// Depending on timing the call may finish before the cancel lands;
		// when it reports an error it must be the cancellation.
		if _, err := d.TransformStridedCtx(ctx, strided, k, Forward, Config{}); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation surfaced as %v", err)
		}
		cancel()
	}
	// Workers must all have exited: poll briefly, then compare against the
	// pre-test goroutine count (allowing unrelated runtime churn).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
}
