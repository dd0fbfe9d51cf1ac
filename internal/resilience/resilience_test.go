package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{&TransientError{Op: "launch"}, Transient},
		{fmt.Errorf("wrapped: %w", &TransientError{Op: "launch"}), Transient},
		{&PanicError{Value: "boom"}, Fatal},
		{errors.New("plain"), Fatal},
		{context.Canceled, Canceled},
		{fmt.Errorf("op: %w", context.DeadlineExceeded), Canceled},
		// Cancellation wrapped inside a typed error still reads as Canceled.
		{&TransientError{Op: "x", Err: context.Canceled}, Canceled},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBackoffCapped(t *testing.T) {
	p := Policy{BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}
