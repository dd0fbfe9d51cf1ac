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

func TestTransformBatchMatchesSingle(t *testing.T) {
	f := frBN254(t)
	d, err := NewDomain(f, 256)
	if err != nil {
		t.Fatal(err)
	}
	const count = 9
	vecs := make([][]ff.Element, count)
	want := make([][]ff.Element, count)
	for i := range vecs {
		in := randVector(f, d.N, int64(40+i))
		vecs[i] = f.CopyVector(in)
		want[i] = f.CopyVector(in)
		if _, err := d.NTT(want[i], Config{Strategy: GZKP}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := d.TransformBatch(vecs, Forward, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != count {
		t.Fatalf("got %d stats", len(stats))
	}
	for i := range vecs {
		for j := range vecs[i] {
			if !f.Equal(vecs[i][j], want[i][j]) {
				t.Fatalf("batch transform %d differs at %d", i, j)
			}
		}
	}
}

func TestTransformBatchInverseRoundTrip(t *testing.T) {
	f := frBN254(t)
	d, _ := NewDomain(f, 128)
	in := randVector(f, d.N, 55)
	vecs := [][]ff.Element{f.CopyVector(in), f.CopyVector(in)}
	if _, err := d.TransformBatch(vecs, Forward, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TransformBatch(vecs, Inverse, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs {
		for j := range v {
			if !f.Equal(v[j], in[j]) {
				t.Fatal("batch inverse roundtrip failed")
			}
		}
	}
}

// TestTransformBatchDifferential checks both batch entry points against k
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
			vecs := make([][]ff.Element, k)
			strided := make([]ff.Element, 0, k*d.N)
			for i := 0; i < k; i++ {
				in := randVector(f, d.N, int64(100+i))
				want[i] = f.CopyVector(in)
				if _, err := d.Transform(want[i], dir, Config{Strategy: GZKP}); err != nil {
					t.Fatal(err)
				}
				vecs[i] = f.CopyVector(in)
				strided = append(strided, f.CopyVector(in)...)
			}
			if _, err := d.TransformBatch(vecs, dir, Config{}); err != nil {
				t.Fatal(err)
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
					if !f.Equal(vecs[i][j], want[i][j]) {
						t.Fatalf("%s dir %d: batch vector %d differs at %d", f.Name(), dir, i, j)
					}
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

// TestTransformBatchCancellation cancels mid-batch and checks both that the
// cancellation surfaces as context.Canceled and that no worker goroutines
// leak (run under -race in CI).
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
		vecs := make([][]ff.Element, k)
		strided := make([]ff.Element, 0, k*d.N)
		for i := range vecs {
			vecs[i] = randVector(f, d.N, int64(300+i))
			strided = append(strided, f.CopyVector(vecs[i])...)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			cancel()
		}()
		_, errBatch := d.TransformBatchCtx(ctx, vecs, Forward, Config{})
		_, errStrided := d.TransformStridedCtx(ctx, strided, k, Forward, Config{})
		// Depending on timing either call may finish before the cancel
		// lands; when one reports an error it must be the cancellation.
		for _, err := range []error{errBatch, errStrided} {
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancellation surfaced as %v", err)
			}
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

func TestTransformBatchValidation(t *testing.T) {
	f := frBN254(t)
	d, _ := NewDomain(f, 64)
	if _, err := d.TransformBatch([][]ff.Element{f.NewVector(32)}, Forward, Config{}); err == nil {
		t.Fatal("wrong-size batch vector accepted")
	}
	// Empty batch is a no-op.
	if _, err := d.TransformBatch(nil, Forward, Config{}); err != nil {
		t.Fatal(err)
	}
}
